"""End-to-end tests for the command line interface."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import golden
import states
from bellsim import cli, detection, fock
from bellsim.policy import ConfigError, NumericalPolicy


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle_pi_fractions():
    assert abs(cli.parse_angle("pi/8") - np.pi / 8) < 1e-15
    assert abs(cli.parse_angle("3pi/8") - 3 * np.pi / 8) < 1e-15
    assert abs(cli.parse_angle("-pi/4") + np.pi / 4) < 1e-15
    assert abs(cli.parse_angle("2*pi/3") - 2 * np.pi / 3) < 1e-15
    assert abs(cli.parse_angle("pi") - np.pi) < 1e-15
    assert abs(cli.parse_angle("0.75") - 0.75) < 1e-15
    assert cli.parse_angle("0") == 0.0


def test_parse_angle_rejects_garbage():
    for bad in ("pie/8", "pi/", "thirty", "1 2", ""):
        with pytest.raises(ConfigError):
            cli.parse_angle(bad)


def test_run_two_photon_at_pinned_angles(capsys):
    code, out, err = run_cli(
        ["run", "--state", "two_photon", "--angles", "pi/8,pi/4,3pi/8,0"], capsys
    )
    assert code == 0
    assert "verdict: violated" in out
    assert "f = 0.207106781187" in out


def test_run_vacuum_is_not_violated(capsys):
    code, out, err = run_cli(
        ["run", "--state", "vacuum", "--angles", "0,0,0,0"], capsys
    )
    assert code == 0
    assert "verdict: not violated" in out


@pytest.mark.parametrize("engine", ["fock", "analytic"])
def test_vacuum_upper_margin_is_positive_zero(engine, tmp_path, capsys):
    report = detection.ch_functional(states.vacuum_state(4, 2), detection.AngleSettings(0, 0, 0, 0))
    assert report.upper_margin == 0.0
    assert math.copysign(1.0, report.upper_margin) == 1.0
    argv = ["run", "--state", "vacuum", "--angles", "0,0,0,0", "--engine", engine]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "lower=0.000e+00 upper=0.000e+00" in out
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(argv + ["--out", str(out_file)], capsys)
    with open(out_file, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["upper_margin"] == "0"
    assert "-0" not in out_file.read_text()


def test_run_without_angles_uses_the_seed(capsys):
    code1, out1, _ = run_cli(["run", "--state", "two_photon", "--seed", "5"], capsys)
    code2, out2, _ = run_cli(["run", "--state", "two_photon", "--seed", "5"], capsys)
    code3, out3, _ = run_cli(["run", "--state", "two_photon", "--seed", "6"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 != out3


@pytest.mark.parametrize("argv, config", [
    (["run", "--state", "two_photon", "--seed", "-1"], None),
    (["validate", "--seed", "-3"], None),
    # refused even where fixed angles leave the seed unused
    (["run", "--state", "two_photon", "--angles", "0,0,0,0"], {"seed": -2}),
], ids=["run", "validate", "config"])
def test_a_negative_seed_is_one_error_line_naming_it(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert run_cli(argv, capsys) == (1, "", "error: seed must not be negative\n")


def test_run_inconclusive_exit_code(tmp_path, capsys):
    # an enormous verdict tolerance forces every broken bound into the
    # inconclusive band, which maps to exit code 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"verdict_tol": 10.0}}))
    code, out, err = run_cli(
        [
            "run",
            "--state",
            "two_photon",
            "--angles",
            "pi/8,pi/4,3pi/8,0",
            "--config",
            str(cfg),
        ],
        capsys,
    )
    assert code == 2
    assert "verdict: inconclusive" in out


# the cutoff-9 replica holds the lower bound by 4.1e-4, less than its
# truncation tail 5.8e-4, while the exact state breaks it by 1.6e-4
SHALLOW_REPLICA = [
    "--cutoff", "9",
    "--state", '{"kind":"squeezed_thermal","u":-0.08505226340053484,"v":-0.5148919488290826}',
    "--angles", "0.9350904340267354,2.3687507741090967,0.5301581250006618,2.9098897262839887",
]


def test_a_margin_below_the_tail_is_inconclusive(capsys):
    code, out, _ = run_cli(["run", "--engine", "both", *SHALLOW_REPLICA], capsys)
    gaussian_block, fock_block = out.split("fock engine (cutoff 9):")
    assert "lower=-1.565e-04" in gaussian_block and "verdict: violated" in gaussian_block
    assert "lower=4.084e-04" in fock_block and "tail=5.8e-04" in fock_block
    assert "verdict: inconclusive" in fock_block
    assert code == 0  # the exit code follows the Gaussian verdict
    code, out, _ = run_cli(["run", "--engine", "fock", *SHALLOW_REPLICA], capsys)
    assert code == 2
    assert "verdict: inconclusive" in out


def test_run_writes_a_report_row(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(
        [
            "run",
            "--state",
            "two_photon",
            "--angles",
            "pi/8,pi/4,3pi/8,0",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    with open(out_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert abs(float(rows[0]["f"]) - 0.20710678118654746) < 1e-12
    assert rows[0]["verdict"] == "violated"


@pytest.mark.parametrize("angles", [["--angles", "0,1,2,3"], []])
def test_a_run_that_cannot_write_its_out_prints_nothing(angles, tmp_path, capsys):
    out_file = tmp_path / "missing_dir" / "x.csv"
    code, out, err = run_cli(
        ["run", "--state", "two_photon", *angles, "--out", str(out_file)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out_file.parent.exists()


@pytest.mark.parametrize("argv", [["run", "--state", "vacuum", "--angles", "0,0,0,0"],
                                  ["sweep", "--u-stop", "0.1"]])
def test_an_empty_out_path_is_one_error_line(argv, capsys):
    error = "error: [Errno 2] No such file or directory: ''\n"
    assert run_cli(argv + ["--out", ""], capsys) == (1, "", error)


def test_engine_constraints(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "--state", "two_photon", "--engine", "gaussian"], capsys
    )
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(
        ["run", "--state", "coherent", "--engine", "both"], capsys
    )
    assert code == 1
    cfg = tmp_path / "mixed.json"
    cfg.write_text(
        json.dumps(
            {"state": {"kind": "squeezed_thermal", "u": 0.2, "v": 0.2, "kappa": 0.5}}
        )
    )
    code, _, err = run_cli(
        ["run", "--config", str(cfg), "--engine", "fock"], capsys
    )
    assert code == 1
    assert "error:" in err


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    cases = [
        ("run", {"stat": {"kind": "vacuum"}}, "config: run does not read 'stat'"),
        ("run", {"state": {"kind": "vacuum", "extra": 1}}, "unknown state[vacuum] field(s): extra"),
        ("run", {"state": {"kind": "vacuum"}, "policy": {"nope": 1}},
         "unknown policy field(s): nope"),
        # on a command that reads sweep, so the nested key is what is refused
        ("sweep", {"sweep": {"u_maximum": 2.0}}, "unknown sweep field(s): u_maximum"),
    ]
    for i, (command, payload, error) in enumerate(cases):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert (code, out, err) == (1, "", f"error: {error}\n")


# the config keys each command reads, written out rather than read from cli._COMMANDS
COMMAND_KEYS = {
    "run": {"engine", "state", "angles", "cutoff", "seed", "out", "policy"},
    "sweep": {"engine", "angles", "out", "policy", "sweep"},
    "scan": {"engine", "state", "cutoff", "grid", "refine", "policy"},
    "validate": {"cutoff", "seed", "trials", "policy"},
}
# a well-formed value for every key any command reads, and one no command reads
KEY_VALUES = {
    "engine": "fock", "state": "two_photon", "angles": "0,0,0,0", "cutoff": 8, "seed": 4,
    "out": "never.txt", "policy": {}, "sweep": {}, "grid": 4, "refine": True, "trials": 0,
    "stat": "vacuum",
}
REFUSED_KEYS = [
    pytest.param(command, {key: KEY_VALUES[key]}, [], id=f"{command}-{key}")
    for command, keys in COMMAND_KEYS.items()
    for key in sorted(set(KEY_VALUES) - keys)
] + [
    # a scan that took these keys used to exit 0 and write no file
    pytest.param("scan", {"out": "never.txt", "seed": 4}, ["--state", "two_photon", "--grid", "4"],
                 id="scan-out-seed"),
]


def test_each_command_reads_exactly_its_config_keys():
    for command, (_, fields, _) in cli._COMMANDS.items():
        assert {field.key for field in fields} == COMMAND_KEYS[command], command


def test_the_readme_table_lists_each_command_flags_and_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `") and "--config" in line]
    want = []
    for name, (_, fields, _) in cli._COMMANDS.items():
        flags = " ".join(["--config"] + [field.flag for field in fields if field.flag])
        keys = " ".join(dict.fromkeys(field.key for field in fields))
        want.append(f"| `{name}` | `{flags}` | `{keys}` |")
    assert rows == want


@pytest.mark.parametrize("command, config, extra", REFUSED_KEYS)
def test_a_config_key_the_command_does_not_read_is_refused(
    command, config, extra, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(config))
    code, out, err = run_cli([command, "--config", "c.json", *extra], capsys)
    refused = ", ".join(repr(key) for key in sorted(config))
    assert (code, out, err) == (1, "", f"error: config: {command} does not read {refused}\n")
    assert not (tmp_path / "never.txt").exists()


def test_config_file_merges_with_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "state": {"kind": "two_photon"},
                "angles": ["pi/8", "pi/4", "3pi/8", "0"],
                "seed": 3,
            }
        )
    )
    code, out, _ = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    assert "verdict: violated" in out
    # a flag beats the file: vacuum shows no violation at these angles
    code, out, _ = run_cli(
        ["run", "--config", str(cfg), "--state", "vacuum"], capsys
    )
    assert code == 0
    assert "verdict: not violated" in out


def test_state_file_round_trip(tmp_path, capsys):
    payload = {
        "mode_count": 4,
        "cutoff": 2,
        "amplitudes": [
            {"occupation": [1, 0, 0, 1], "re": 1.0, "im": 0.0},
            {"occupation": [0, 1, 1, 0], "re": 1.0, "im": 0.0},
        ],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    state_arg = json.dumps({"kind": "file", "path": str(path)})
    code, out, _ = run_cli(
        ["run", "--state", state_arg, "--angles", "pi/8,pi/4,3pi/8,0"], capsys
    )
    assert code == 0
    assert "f = 0.207106781187" in out


def two_photon_file(tmp_path, re, im=0.0):
    """A state file holding (|1,0,0,1> + |0,1,1,0>) scaled by re + i im."""
    payload = {
        "mode_count": 4,
        "cutoff": 2,
        "amplitudes": [
            {"occupation": [1, 0, 0, 1], "re": re, "im": im},
            {"occupation": [0, 1, 1, 0], "re": re, "im": im},
        ],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    return json.dumps({"kind": "file", "path": str(path)})


@pytest.mark.parametrize("scale", [1e308, 1e-13, 5e-324])
def test_state_file_normalization_does_not_depend_on_scale(scale, tmp_path, capsys):
    state_arg = two_photon_file(tmp_path, scale, scale)
    code, out, err = run_cli(["run", "--state", state_arg, "--angles", "pi/8,pi/4,3pi/8,0"], capsys)
    assert (code, err) == (0, "")
    assert "f = 0.207106781187" in out
    assert "verdict: violated" in out


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_state_file_amplitudes_are_errors(part, value, tmp_path, capsys):
    state_arg = two_photon_file(tmp_path, **{"re": 1.0, part: value})
    code, out, err = run_cli(["run", "--state", state_arg, "--angles", "0,0,0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: amplitude {part} of occupation [1, 0, 0, 1] must be finite, got {value!r}\n"
    )


def test_state_file_validation(tmp_path, capsys):
    dup = {
        "mode_count": 4,
        "cutoff": 2,
        "amplitudes": [
            {"occupation": [1, 0, 0, 1], "re": 1.0, "im": 0.0},
            {"occupation": [1, 0, 0, 1], "re": -1.0, "im": 0.0},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(dup))
    state_arg = json.dumps({"kind": "file", "path": str(path)})
    code, _, err = run_cli(["run", "--state", state_arg], capsys)
    assert code == 1
    assert "error:" in err

    zero = dict(dup)
    zero["amplitudes"] = [{"occupation": [0, 0, 0, 0], "re": 0.0, "im": 0.0}]
    path2 = tmp_path / "zero.json"
    path2.write_text(json.dumps(zero))
    state_arg = json.dumps({"kind": "file", "path": str(path2)})
    code, _, err = run_cli(["run", "--state", state_arg], capsys)
    assert code == 1


def test_sweep_writes_consistent_rows(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        [
            "sweep",
            "--u-start",
            "0",
            "--u-stop",
            "0.7",
            "--u-step",
            "0.1",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(cli.CSV_FIELDS)
        rows = list(reader)
    # 8 u values x 3 scenarios x 3 kappas
    assert len(rows) == 72
    for row in rows:
        f = float(row["f"])
        neg = float(row["neg_p_both"])
        inside = neg <= f <= 0.0
        assert inside == (row["violated"] == "0")
    assert any(r["violated"] == "1" for r in rows)


def test_sweep_output_is_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            [
                "sweep",
                "--u-start",
                "0",
                "--u-stop",
                "0.3",
                "--u-step",
                "0.1",
                "--out",
                str(path),
            ],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_at_zero_squeezing_is_null(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"sweep": {"scenarios": ["equal"], "kappas": [1.0]}})
    )
    out = tmp_path / "zero.csv"
    code, _, _ = run_cli(
        ["sweep", "--config", str(cfg), "--u-start", "0", "--u-stop", "0",
         "--u-step", "0.1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["f"]) == 0.0
    assert rows[0]["violated"] == "0"


POLICY = "(policy max_dimension)"
PINNED = ["--angles", "0.39,0.79,1.18,0"]


@pytest.mark.parametrize("step, named", [
    # 1.2e9 u values: as a list of floats alone, tens of gigabytes
    ("1e-9", "a sweep of 1200000001 u values x 9 (scenario, kappa) pairs needs 10800000009"),
    # a step too small to count the span in
    ("1e-320", "a sweep of inf u values x 9 (scenario, kappa) pairs needs inf"),
])
def test_a_sweep_past_the_point_limit_is_one_error_line(step, named, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        code, printed, err = run_cli(["sweep", "--u-step", step, "--out", str(out)], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and printed == ""
    assert err == f"error: {named} entries, past the configured maximum of 2000000 {POLICY}\n"
    assert not out.exists()
    assert peak < 10_000_000


# each limit is exactly what the allowed value needs, so the rule's bound is pinned at both sides
@pytest.mark.parametrize("argv, limit, allowed, refused, what", [
    # C(9 + 4, 4) = 715 basis states; C(10 + 4, 4) = 1001
    pytest.param(["run", "--engine", "fock", "--state", "vacuum", *PINNED, "--cutoff"], 715,
                 "9", "10", "a Fock basis of 4 modes at cutoff 10 needs 1001", id="basis"),
    # (19 // 2 + 1)^3 = 1000 block entries; 11^3 = 1331
    pytest.param(["run", "--engine", "fock", "--state", '{"kind": "squeezed_thermal", "u": 0.4, '
                  '"v": 0.35}', *PINNED, "--cutoff"], 1000, "19", "20",
                 "the Fock replica at cutoff 20 needs 1331", id="replica"),
    # 31^2 = 961 table entries; 32^2 = 1024
    pytest.param(["scan", "--state", "vacuum", "--grid"], 961, "31", "32",
                 "a scan grid of 32 points per angle needs 1024", id="scan"),
    # 111 u values x 9 (scenario, kappa) pairs = 999 points; 112 x 9 = 1008
    pytest.param(["sweep", "--u-step", "0.01", "--u-stop"], 999, "1.1", "1.11",
                 "a sweep of 112 u values x 9 (scenario, kappa) pairs needs 1008", id="sweep"),
    # 10 trials x 82 uniforms = 820 entries; 11 x 82 = 902
    pytest.param(["validate", "--trials"], 820, "10", "11",
                 "a classical suite of 11 trials needs 902", id="validate"),
])
def test_every_size_limit_is_one_rule(argv, limit, allowed, refused, what, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"max_dimension": limit}}))
    argv = [argv[0], "--config", str(cfg), *argv[1:]]
    assert run_cli(argv + [allowed], capsys)[0] == 0
    assert run_cli(argv + [refused], capsys) == (
        1, "", f"error: {what} entries, past the configured maximum of {limit} {POLICY}\n"
    )


def test_the_squeezed_replica_runs_past_the_old_basis_limit(capsys):
    # C(116 + 4, 4) = 8214570 basis states, but only 59^3 block entries
    state = json.dumps({"kind": "squeezed_thermal", "u": 1.2, "v": 1.2})
    code, out, _ = run_cli(
        ["run", "--engine", "both", "--cutoff", "116", "--state", state, *PINNED], capsys
    )
    (gap,) = [line for line in out.splitlines() if line.startswith("largest cross-engine gap")]
    assert code == 0 and float(gap.split(":")[1]) <= 1e-6


def test_a_negative_scan_grid_is_refused_by_the_scan_itself(capsys):
    # a grid below 2 counts no table entries, so the scan's own check refuses it
    assert run_cli(["scan", "--state", "two_photon", "--grid", "-5000"], capsys) == (
        1, "", "error: grid density must be at least 2\n"
    )


def test_the_scan_grid_is_bounded_by_the_policy_max_dimension(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"max_dimension": 100}}))
    argv = ["scan", "--config", str(cfg), "--state", "vacuum", "--grid"]
    assert run_cli(argv + ["10"], capsys)[0] == 0

    def unbuilt(*args):
        raise AssertionError("the grid is refused before any state is built")

    monkeypatch.setattr(cli, "build_state", unbuilt)
    assert run_cli(argv + ["11"], capsys) == (
        1, "", "error: a scan grid of 11 points per angle needs 121 entries, "
        "past the configured maximum of 100 (policy max_dimension)\n"
    )


def test_scan_finds_the_two_photon_optimum(capsys):
    code, out, _ = run_cli(
        ["scan", "--state", "two_photon", "--grid", "8", "--refine"], capsys
    )
    assert code == 0
    assert "refined f = 0.207106781187" in out
    assert "verdict at best angles: violated" in out


def test_scan_on_vacuum_stays_flat(capsys):
    code, out, _ = run_cli(["scan", "--state", "vacuum", "--grid", "4"], capsys)
    assert code == 0
    assert "not violated" in out


def test_validate_passes_quickly(capsys):
    code, out, _ = run_cli(
        ["validate", "--trials", "6", "--cutoff", "12", "--seed", "2"], capsys
    )
    assert code == 0
    assert "validation: pass" in out


def test_validate_with_no_trials_warns(capsys):
    code, out, err = run_cli(["validate", "--trials", "0"], capsys)
    assert code == 0
    assert "classical" in err.lower()


def test_validate_with_no_trials_prints_a_refused_setting_alone(capsys):
    # nothing, the trials = 0 warning included, is written before the checks ran
    code, out, err = run_cli(["validate", "--trials", "0", "--cutoff", "1000000"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the Fock replica at cutoff 1000000 needs ")
    assert len(err.splitlines()) == 1


def test_validate_bounds_the_cross_engine_gap_by_the_replica_tail(capsys):
    # at cutoff 6 the replicas miss up to 2.4e-4 of their weight, and their
    # rates are within that of the Gaussian engine's
    code, out, _ = run_cli(["validate", "--trials", "0", "--cutoff", "6"], capsys)
    assert code == 0
    assert "cross-engine rates (cutoff 6): worst gap 9.492e-05 (tol 2.4e-04) -> pass" in out


def test_validate_prints_the_seeded_numbers(capsys):
    # the seed's uniform table, the replica and both engines' tables pin these
    code, out, _ = run_cli(["validate", "--trials", "1000", "--seed", "944904"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert (
        "cross-engine rates (cutoff 16): worst gap 4.178e-10 (tol 1.0e-06) -> pass" in lines
    )
    assert (
        "classical nonviolation (1000 trials): violations 0, worst f -1.806e-03, "
        "worst lower margin 1.978e-02 -> pass"
    ) in lines


def test_validation_checks_are_live(monkeypatch):
    # an impossible tolerance must fail its own layer and no other: proof that
    # each comparison really runs
    ok, lines = cli.run_validation(seed=1, trials=2, cutoff=10)
    assert ok
    assert len(lines) == 3 and all(line.endswith(" -> pass") for line in lines)
    for layer, (name, value) in enumerate(
        # the cross-engine bound is CROSS_TOL plus the replicas' tail, 2.4e-6 at
        # cutoff 10, so no tiny positive CROSS_TOL fails it
        [("GOLDEN_TOL", 1e-30), ("CROSS_TOL", -1), ("CLASSICAL_TOL", -1)]
    ):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, value)
            ok, lines = cli.run_validation(seed=1, trials=2, cutoff=10)
        assert not ok
        assert [line.endswith(" -> FAIL") for line in lines] == [i == layer for i in range(3)]
        assert all(line.endswith(" -> pass") for i, line in enumerate(lines) if i != layer)


def test_unknown_state_kind_fails_cleanly(capsys):
    code, _, err = run_cli(["run", "--state", "warp_core"], capsys)
    assert code == 1
    assert "error:" in err


def test_angles_must_come_in_fours(capsys):
    code, _, err = run_cli(
        ["run", "--state", "vacuum", "--angles", "0,0,0"], capsys
    )
    assert code == 1
    assert "error:" in err


def test_non_finite_angles_are_an_error(capsys):
    for angles in ("nan,0,0,0", "0,inf,0,0"):
        code, out, err = run_cli(
            ["run", "--state", "two_photon", "--angles", angles], capsys
        )
        assert code == 1
        assert "verdict" not in out
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")


def test_analytic_engine_is_accepted_for_closed_form_states(tmp_path, capsys):
    mixture = json.dumps(
        {"kind": "mixture", "weights": [0.5, 0.5],
         "components": [[0.3, 0.1, 0, 0], [0, 0, 0.2, [0.1, 0.4]]]}
    )
    coherent_state = json.dumps({"kind": "coherent", "z": [0.5, 0.1, 0, 0.3]})
    for state in ("vacuum", coherent_state, mixture):
        code, out, err = run_cli(
            ["run", "--state", state, "--engine", "analytic", "--angles", "0,1,0.5,0.2"],
            capsys,
        )
        assert code == 0, err
        assert "verdict: not violated" in out
    code, out, _ = run_cli(
        ["scan", "--state", coherent_state, "--engine", "analytic", "--grid", "4"], capsys
    )
    assert code == 0
    squeezed = json.dumps({"kind": "squeezed_thermal", "u": 0.2, "v": 0.2})
    for state in ("two_photon", squeezed):
        code, _, err = run_cli(["run", "--state", state, "--engine", "analytic"], capsys)
        assert code == 1
        assert err.startswith("error:") and "analytic" in err
    with pytest.raises(ConfigError):
        cli._resolve_engine(
            cli.ExperimentConfig(engine="analytic", state={"kind": "two_photon"})
        )


def test_negative_policy_values_are_refused(tmp_path, capsys):
    # with a negative verdict tolerance the saturated upper bound of this
    # classical state (f = 0 at equal angles) would read as a violation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"verdict_tol": -1e-9}}))
    state = json.dumps({"kind": "coherent", "z": [0.5, 0, 0.7, 0]})
    argv = ["run", "--state", state, "--angles", "0,0,0,0"]
    code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: policy verdict_tol must be a number >= 0, got -1e-09\n"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "verdict: not violated" in out
    names = ("verdict_tol", "max_dimension", "squeeze_limit", "coherent_tail_tol")
    assert {field.name for field in dataclasses.fields(NumericalPolicy)} == set(names)
    for name in names:
        with pytest.raises(ValueError, match=name):
            NumericalPolicy(**{name: -1})
    with pytest.raises(ValueError):
        NumericalPolicy(verdict_tol=float("nan"))
    assert NumericalPolicy(verdict_tol=0.0, max_dimension=0).verdict_tol == 0.0


KIND_STATES = {
    "two_photon": {"kind": "two_photon"},
    "vacuum": {"kind": "vacuum"},
    "coherent": {"kind": "coherent", "z": [0.5, 0.1, 0, 0.3]},
    "mixture": {"kind": "mixture", "weights": [0.5, 0.5],
                "components": [[0.3, 0.1, 0, 0], [0, 0, 0.2, [0.1, 0.4]]]},
    "squeezed_thermal": {"kind": "squeezed_thermal", "u": 0.2, "v": 0.1},
    "file": {"kind": "file"},
}


@pytest.mark.parametrize("engine", cli._ENGINES)
@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_each_engine_runs_exactly_the_kinds_it_can_evaluate(kind, engine, tmp_path, capsys):
    spec = KIND_STATES[kind]
    if kind == "file":
        path = tmp_path / "state.json"
        amplitudes = [{"occupation": occ, "re": 1.0} for occ in ([1, 0, 0, 1], [0, 1, 1, 0])]
        path.write_text(json.dumps({"cutoff": 2, "amplitudes": amplitudes}))
        spec = {"kind": "file", "path": str(path)}
    argv = ["run", "--state", json.dumps(spec), "--engine", engine, "--cutoff", "10",
            "--angles", "0.39,0.79,1.18,0"]
    code, out, err = run_cli(argv, capsys)
    if engine in cli._KINDS[kind].engines:
        assert code in (0, 2), err
        assert "verdict:" in out
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert repr(engine) in err and repr(kind) in err


@pytest.mark.parametrize("argv", [
    [],
    ["run", "--bogus"],
    ["run", "--engine", "warp"],
    ["scan", "--grid", "many"],
    ["teleport"],
    # sizes past the address space: the first array fails at once, whatever
    # the overcommit setting, and nothing is allocated
    ["validate", "--trials", str(10**15)],
    ["scan", "--state", "two_photon", "--grid", str(10**15)],
], ids=" ".join)
def test_usage_errors_exit_one_not_inconclusive(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, flag, value", [
    ("scan", "--seed", "3"),
    ("scan", "--out", "{tmp}/x.txt"),
    ("sweep", "--cutoff", "8"),
    ("sweep", "--seed", "3"),
    ("validate", "--engine", "fock"),
    ("validate", "--out", "{tmp}/x.txt"),
])
def test_a_flag_the_command_does_not_read_is_refused(command, flag, value, tmp_path, capsys):
    value = value.format(tmp=tmp_path)
    argv = [command, flag, value] + (["--state", "two_photon"] if command == "scan" else [])
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: unrecognized arguments: {flag} {value}\n"
    assert not (tmp_path / "x.txt").exists()


def test_a_memory_error_without_a_message_is_named(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(detection, "angle_scan", exhausted)
    code, out, err = run_cli(["scan", "--state", "two_photon"], capsys)
    assert (code, out, err) == (1, "", "error: MemoryError\n")


def test_scan_prints_nothing_when_its_verdict_fails(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(detection, "ch_functional", broken)
    code, out, err = run_cli(["scan", "--state", "two_photon", "--grid", "4"], capsys)
    assert (code, out, err) == (1, "", "error: boom\n")


@pytest.mark.parametrize("argv", [
    ["run", "--state", "two_photon", "--angles", "0,1,2,3", "--out", "out.csv"],
    ["run", "--state", "two_photon", "--out", "out.csv"],
    ["run", "--engine", "both", *SHALLOW_REPLICA, "--out", "out.csv"],
    ["scan", "--state", "two_photon", "--grid", "4"],
    ["sweep", "--u-stop", "0.1", "--u-step", "0.05", "--out", "out.csv"],
    ["sweep", "--u-stop", "0.1", "--u-step", "0.05"],
    ["validate", "--trials", "0", "--cutoff", "6"],
], ids=["run-out", "run-no-angles", "run-both", "scan", "sweep-out", "sweep", "validate"])
def test_a_command_writes_nothing_before_it_returns(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = cli.ExperimentConfig.load(cli.build_parser().parse_args(argv))
    code, out, csv_lines, err = cli._COMMANDS[argv[0]][2](config)
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []

    def text(lines):
        return "".join(line + "\n" for line in lines)

    # main writes what the command returned, and nothing else
    assert run_cli(argv, capsys) == (code, text(out), text(err))
    assert [path.name for path in tmp_path.iterdir()] == (["out.csv"] if config.out else [])
    if config.out:
        assert (tmp_path / "out.csv").read_text() == text(csv_lines)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_a_command_prints_the_golden_text(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the unwritable --out is a relative path
    case = golden.CASES[name]
    assert run_cli(case.argv, capsys) == (case.code, case.stdout, case.stderr)


# json.dumps recurses as deep as its input, so the deep text is written by hand
_BAD_JSON_FILES = {
    "syntax": b'{"cutoff": ',
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b'{"cutoff": \xff}',
}


@pytest.mark.parametrize(
    "where, text",
    [
        *(pytest.param(where, text, id=f"{where}-{fault}") for where in ("config", "state file")
          for fault, text in _BAD_JSON_FILES.items()),
        pytest.param("inline state", '{"kind": "coh', id="inline state-syntax"),
        pytest.param("inline state", '{"kind": ' + "[" * 3000 + "]" * 3000 + "}",
                     id="inline state-deep"),
    ],
)
def test_a_json_error_is_one_line_naming_its_source(where, text, tmp_path, capsys):
    # a syntax error, JSON nested too deep, or a byte that is not UTF-8
    path = tmp_path / "bad.json"
    if where == "config":
        path.write_bytes(text)
        argv, source = ["run", "--config", str(path)], f"config file {path}"
    elif where == "state file":
        path.write_bytes(text)
        argv = ["run", "--state", json.dumps({"kind": "file", "path": str(path)})]
        source = f"state file {path}"
    else:
        argv, source = ["run", "--state", text], "state"
    code, out, err = run_cli(argv + ["--angles", "0,0,0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {source}: ") and len(err.strip().splitlines()) == 1


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_missing_state_fields_are_errors(capsys):
    for spec in (
        {"kind": "coherent"},
        {"kind": "mixture", "weights": [1.0]},
        {"kind": "squeezed_thermal", "u": 0.2},
        {"kind": "squeezed_thermal", "v": 0.2, "kappa": 0.9},
        {"kind": "file"},
    ):
        code, _, err = run_cli(["run", "--state", json.dumps(spec)], capsys)
        assert code == 1, spec
        assert err.startswith("error:") and "missing" in err


def test_squeezed_thermal_kappa_defaults_to_one(capsys):
    spec = json.dumps({"kind": "squeezed_thermal", "u": 0.62, "v": 0.62})
    code, out, _ = run_cli(
        ["run", "--state", spec, "--angles", "pi/8,pi/4,3pi/8,0", "--engine", "both",
         "--cutoff", "8"],
        capsys,
    )
    assert code == 0
    assert "verdict: violated" in out


def test_bad_state_file_occupations_are_errors(tmp_path, capsys):
    cases = {
        "over_cutoff": {"cutoff": 2, "amplitudes": [{"occupation": [3, 0, 0, 0], "re": 1.0}]},
        "too_short": {"cutoff": 2, "amplitudes": [{"occupation": [1, 0, 0], "re": 1.0}]},
        "negative": {"cutoff": 2, "amplitudes": [{"occupation": [-1, 1, 0, 0], "re": 1.0}]},
        "no_cutoff": {"amplitudes": [{"occupation": [1, 0, 0, 1], "re": 1.0}]},
        "no_amplitudes": {"cutoff": 2},
    }
    for name, payload in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        state_arg = json.dumps({"kind": "file", "path": str(path)})
        code, _, err = run_cli(["run", "--state", state_arg, "--angles", "0,0,0,0"], capsys)
        assert code == 1, name
        assert err.startswith("error:")


MIXTURE = {"kind": "mixture", "weights": [0.4, 0.6],
           "components": [[1, 0.5, 0.8, 0.2], [0.5, 1, 0.3, 0.9]]}


def test_run_with_the_fock_engine_on_a_mixture_reports_its_tail(tmp_path, capsys):
    rows = {}
    for engine in ("fock", "analytic"):
        out_path = tmp_path / f"{engine}.csv"
        code, _, _ = run_cli(
            ["run", "--state", json.dumps(MIXTURE), "--engine", engine, "--cutoff", "14",
             "--angles", "0,1,0.5,0.2", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows[engine] = next(csv.DictReader(out_path.open()))
    tail = float(rows["fock"]["tail_err"])
    assert 0.0 < tail < 1e-8
    assert float(rows["analytic"]["tail_err"]) == 0.0
    for name in ("p_tt", "p_t_any", "p_any_t", "p_any_any"):
        gap = abs(float(rows["fock"][name]) - float(rows["analytic"][name]))
        assert gap <= tail + 1e-12


@pytest.mark.parametrize("command", ["run", "scan"])
@pytest.mark.parametrize(
    "mixture",
    [
        {"kind": "mixture", "weights": [1.0], "components": [[math.inf, 0, 0, 0]]},
        {"kind": "mixture", "weights": [0.5, math.nan],
         "components": [[0.1, 0, 0, 0], [0, 0, 0.2, 0]]},
    ],
    ids=["infinite_amplitude", "nan_weight"],
)
def test_a_non_finite_mixture_is_an_error(command, mixture, capsys):
    argv = [command, "--state", json.dumps(mixture)]
    if command == "run":
        argv += ["--angles", "0.1,0.2,0.3,0.4"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: mixture weights and amplitudes must be finite\n"


def test_scan_with_the_fock_engine_on_a_mixture_matches_the_analytic_scan(capsys):
    grid_f = {}
    for engine in ("fock", "analytic"):
        argv = ["scan", "--state", json.dumps(MIXTURE), "--engine", engine,
                "--cutoff", "14", "--grid", "6"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        grid_f[engine] = float(out.split("grid f = ")[1].split()[0])
    tail = fock.synthesize_coherent_mixture(
        MIXTURE["weights"], MIXTURE["components"], 14
    ).truncation_tail
    assert 0.0 < tail < 1e-8
    # f sums six rates, and each is short by at most the tail
    assert abs(grid_f["fock"] - grid_f["analytic"]) <= 6 * tail + 1e-12


@pytest.mark.parametrize("z, names", [(30, "cutoff 1073"), (1e200, "beyond any cutoff")])
def test_a_coherent_state_past_the_fock_cutoff_is_one_error_line(z, names, tmp_path, capsys):
    # no angles: a run that fails must not print the random draw first
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": {"kind": "coherent", "z": [z, 0, 0, 0]},
                                "engine": "fock"}))
    code, out, err = run_cli(["run", "--config", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert names in err


def test_a_saturated_coherent_state_runs_on_the_analytic_engine(capsys):
    # |z|^2 overflows the float range; the rates saturate without a warning
    for z, rate in (([1e200, 0, 0, 0], "0.0"), ([1e200, 0, 0, 1e200], "1.0")):
        state = json.dumps({"kind": "coherent", "z": z})
        code, out, err = run_cli(["run", "--state", state, "--angles", "0,0,0,0"], capsys)
        assert code == 0, err
        assert err == ""
        assert f"P(any,any)={rate}00000000000\n" in out


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "coherent", "z": 5},
        {"kind": "coherent", "z": [[1, 0], [0, 0], [0, 0]]},
        {"kind": "coherent", "z": [[1, 0], [0, None], 0, 0]},
        {"kind": "mixture", "weights": [1.0], "components": [5]},
        {"kind": "mixture", "weights": [1.0], "components": [[0.3, 0.1, 0.0]]},
        {"kind": "mixture", "weights": [1.0], "components": 7},
        {"kind": "squeezed_thermal", "u": [0.2], "v": 0.1},
        {"kind": "squeezed_thermal", "u": True, "v": 0.1},
        {"kind": "squeezed_thermal", "u": 0.2, "v": "0.1"},
        {"kind": "coherent", "z": [True, 0, 0, 0]},
        {"kind": "file", "occupation": 5},
        {"kind": "file", "amplitudes": [5]},
        {"kind": []},
        {"kind": {}},
    ],
    ids=lambda spec: json.dumps(spec),
)
def test_malformed_state_shapes_are_errors(spec, tmp_path, capsys):
    if spec["kind"] == "file":
        entries = spec.get("amplitudes") or [{"occupation": spec["occupation"], "re": 1.0}]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"cutoff": 2, "amplitudes": entries}))
        spec = {"kind": "file", "path": str(path)}
    code, _, err = run_cli(
        ["run", "--state", json.dumps(spec), "--angles", "0,0,0,0"], capsys
    )
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def source_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_importing_the_cli_does_not_load_scipy_optimize():
    probe = (
        "import sys, bellsim.cli; "
        "print('scipy.optimize' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.split() == ["False", "False"]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def probe_without_thread_vars(code, **extra):
    """Run ``code`` in a fresh interpreter with no BLAS thread variable set but ``extra``."""
    env = source_env()
    for name in THREAD_VARS:
        env.pop(name, None)
    env.update(extra)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip().splitlines()[-1]


FILE_STATE = {"cutoff": 2, "amplitudes": [
    {"occupation": [1, 0, 0, 1], "re": 1.0}, {"occupation": [0, 1, 1, 0], "re": 1.0},
]}
WATCHED = ("bellsim.coherent", "bellsim.gaussian", "numpy.ma")


@pytest.mark.parametrize("argv, loaded", [
    (["scan", "--state", "two_photon", "--grid", "8", "--refine"], []),
    (["run", "--state", "{file}", "--angles", "0,1,2,3"], []),
    (["scan", "--state", "{file}", "--grid", "5", "--refine"], []),
    (["run", "--state", json.dumps({"kind": "coherent", "z": [0.5, 0.1, 0, 0.3]}),
      "--angles", "0,1,2,3"], ["bellsim.coherent"]),
    (["scan", "--state", json.dumps({"kind": "squeezed_thermal", "u": 0.4, "v": 0.35,
                                     "kappa": 0.9}),
      "--grid", "8", "--refine"], ["bellsim.gaussian"]),
], ids=["two_photon_scan", "file_run", "file_scan", "coherent_run", "squeezed_scan"])
def test_a_command_loads_only_the_engines_its_state_needs(argv, loaded, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(FILE_STATE))
    spec = json.dumps({"kind": "file", "path": str(path)})
    argv = [spec if arg == "{file}" else arg for arg in argv]
    probe = (
        "import json, sys\n"
        "from bellsim import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "watched = json.loads(sys.argv[2])\n"
        "print(json.dumps([code, [name for name in watched if name in sys.modules]]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argv), json.dumps(WATCHED)],
        env=source_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [0, loaded]


def test_importing_the_package_does_not_load_numpy():
    probe = "import sys, bellsim; print('numpy' in sys.modules)"
    assert probe_without_thread_vars(probe) == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_cli_process_runs_one_thread():
    probe = (
        "import os, sys\n"
        "from bellsim import cli\n"
        "code = cli.main(['run', '--state', 'vacuum', '--angles', '0,0,0,0'])\n"
        "print(code, len(os.listdir('/proc/self/task')))\n"
    )
    assert probe_without_thread_vars(probe) == "0 1"


@pytest.mark.parametrize("name", THREAD_VARS)
def test_a_thread_count_set_by_the_user_is_kept(name):
    probe = (
        "import json, os\n"
        "import bellsim.cli\n"
        f"print(json.dumps([os.environ.get(v) for v in {THREAD_VARS!r}]))\n"
    )
    got = json.loads(probe_without_thread_vars(probe, **{name: "2"}))
    assert got == ["2" if v == name else None for v in THREAD_VARS]


def test_importing_the_cli_after_numpy_leaves_the_environment_alone():
    probe = (
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import bellsim.cli\n"
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
    )
    assert probe_without_thread_vars(probe) == "True False"


@pytest.mark.parametrize(
    "config",
    [
        {"cutoff": [3]},
        {"cutoff": float("nan")},
        {"cutoff": float("inf")},
        {"cutoff": 3.7},
        {"cutoff": True},
        {"cutoff": "3"},
        {"refine": "false"},
        {"seed": {"value": 1}},
        {"policy": 5},
        {"policy": {"verdict_tol": "tight"}},
        {"policy": {"verdict_tol": float("nan")}},
        {"policy": {"verdict_tol": "1e-9"}},
        {"policy": {"verdict_tol": False}},
        {"policy": {"psd_tol": 1e-9}},
        {"policy": {"purity_tol": 1e-9}},
        {"policy": {"norm_tol": 1e-9}},
        {"policy": {"imag_tol": 1e-9}},
        {"policy": {"hermiticity_tol": 1e-10}},
        {"policy": {"trace_tol": 1e-10}},
        {"policy": {"unitarity_tol": 1e-10}},
        {"policy": {"squeezed_eig_margin": 1e-12}},
        {"policy": {"max_dimension": [10]}},
        {"policy": {"verdict_tol": -1e-9}},
        {"policy": {"max_dimension": -1}},
        {"policy": {"squeeze_limit": -0.5}},
        {"sweep": 5},
        {"sweep": {"scenarios": 5}},
        {"sweep": {"kappas": 0.9}},
        {"sweep": {"kappas": [[0.9]]}},
        {"sweep": {"u_step": float("nan")}},
        {"sweep": {"kappas": [True]}},
        {"angles": 5},
        {"angles": [0, 0, 0, [1]]},
        {"angles": [True, 0, 0, 0]},
        {"angles": [10**400, 0, 0, 0]},
        {"state": {"kind": "coherent", "z": [10**400, 0, 0, 0]}},
        {"out": 5},
    ],
    ids=lambda config: json.dumps(config)[:80],
)
def test_malformed_config_shapes_are_errors(config, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    # each case runs on a command that reads its key, so its reader is what refuses it
    command = "sweep" if "sweep" in config else "scan" if "refine" in config else "run"
    argv = [command, "--config", str(path)]
    if command != "sweep" and "state" not in config:
        argv += ["--state", "two_photon"]
    if command == "run" and "angles" not in config:
        argv += ["--angles", "0,0,0,0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "does not read" not in err
    cutoff = config.get("cutoff")
    if isinstance(cutoff, float) and not math.isfinite(cutoff):
        assert "must be finite" in err


SQUEEZED = {"kind": "squeezed_thermal", "u": 0.4, "v": 0.35, "kappa": 1.0}


@pytest.mark.parametrize("engine", ["fock", "both"])
def test_replica_limits_are_error_lines(engine, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": SQUEEZED, "policy": {"squeeze_limit": 0.1}}))
    base = ["run", "--engine", engine, "--angles", "0.39,0.79,1.18,0"]
    code, out, err = run_cli(base + ["--config", str(path)], capsys)
    assert code == 1
    assert err == "error: |u| = 0.4 exceeds the limit 0.1\n"
    code, out, err = run_cli(base + ["--state", json.dumps(SQUEEZED), "--cutoff", "250"], capsys)
    assert code == 1
    assert err.startswith("error: the Fock replica at cutoff 250 needs ") and POLICY in err
    assert len(err.strip().splitlines()) == 1


REPLICA_REFUSALS = [
    (
        dict(SQUEEZED, kappa=0.9), [],
        "error: only pure (kappa = 1) states have a Fock replica\n",
    ),
    (SQUEEZED, ["--config", "squeeze"], "error: |u| = 0.4 exceeds the limit 0.1\n"),
    (
        dict(SQUEEZED, u=0.05, v=-0.3), ["--config", "squeeze"],
        "error: |u| = 0.3 exceeds the limit 0.1\n",
    ),
    (
        SQUEEZED, ["--cutoff", "250"],
        "error: the Fock replica at cutoff 250 needs 2000376 entries, "
        "past the configured maximum of 2000000 (policy max_dimension)\n",
    ),
    (
        SQUEEZED, ["--config", "dimension"],
        "error: the Fock replica at cutoff 16 needs 729 entries, "
        "past the configured maximum of 100 (policy max_dimension)\n",
    ),
]


@pytest.mark.parametrize("command", ["run fock", "run both", "scan fock"])
@pytest.mark.parametrize("state, extra, error", REPLICA_REFUSALS)
def test_replica_refusals_are_exact_error_lines(command, state, extra, error, tmp_path, capsys):
    policies = {"squeeze": {"squeeze_limit": 0.1}, "dimension": {"max_dimension": 100}}
    for name, policy in policies.items():
        (tmp_path / name).write_text(json.dumps({"policy": policy}))
    extra = [str(tmp_path / arg) if arg in policies else arg for arg in extra]
    verb, engine = command.split()
    argv = [verb, "--engine", engine, "--state", json.dumps(state)] + extra
    # a grid of 4 stays inside max_dimension 100, so the replica is what is refused
    argv += ["--angles", "0.39,0.79,1.18,0"] if verb == "run" else ["--grid", "4"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", error)


def test_the_fock_replica_enumerates_no_basis(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a basis was enumerated")

    monkeypatch.setattr(fock, "_build_basis", refuse)
    code, out, _ = run_cli(
        ["run", "--engine", "both", "--state", json.dumps(SQUEEZED), "--angles", "0.39,0.79,1.18,0"],
        capsys,
    )
    assert code == 0 and "largest cross-engine gap" in out
    code, out, _ = run_cli(["validate", "--trials", "3"], capsys)
    assert code == 0 and "validation: pass" in out


def test_commands_run_without_scipy():
    squeezed = json.dumps({"kind": "squeezed_thermal", "u": 0.4, "v": 0.35, "kappa": 0.9})
    commands = [
        ["scan", "--state", "two_photon", "--grid", "8", "--refine"],
        ["scan", "--state", squeezed, "--grid", "8", "--refine"],
        ["scan", "--state", json.dumps(MIXTURE), "--grid", "6", "--refine"],
        ["sweep"],
        ["validate", "--trials", "5"],
    ]
    probe = (
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(name + ' is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from bellsim import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)],
        env=source_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.strip().splitlines()[-1]) == [0] * len(commands)
    assert "refined f = 0.207106781187" in done.stdout
