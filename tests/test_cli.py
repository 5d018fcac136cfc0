"""End-to-end tests for the command line interface."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellsim import ConfigError, NumericalPolicy, cli, detection, fock


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
    report = detection.ch_functional(fock.vacuum_state(4, 2), detection.AngleSettings(0, 0, 0, 0))
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
        {"stat": {"kind": "vacuum"}},
        {"state": {"kind": "vacuum", "extra": 1}},
        {"state": {"kind": "vacuum"}, "policy": {"nope": 1}},
        {"state": {"kind": "vacuum"}, "sweep": {"u_maximum": 2.0}},
    ]
    for i, payload in enumerate(cases):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(payload))
        code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 1
        assert "error:" in err


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


def test_validation_checks_are_live():
    # an impossible tolerance must fail: proof the comparisons really run
    ok, lines = cli.run_validation(seed=1, trials=2, cutoff=10, golden_tol=1e-30)
    assert not ok
    ok, lines = cli.run_validation(seed=1, trials=2, cutoff=10, cross_tol=1e-30)
    assert not ok
    ok, _ = cli.run_validation(seed=1, trials=2, cutoff=10)
    assert ok


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
@pytest.mark.parametrize("kind", sorted(cli._STATE_KEYS))
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
    if engine in cli._STATE_ENGINES[kind]:
        assert code in (0, 2), err
        assert "verdict:" in out
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert repr(engine) in err and repr(kind) in err


def test_usage_errors_exit_one_not_inconclusive(capsys):
    for argv in (
        [],
        ["run", "--bogus"],
        ["run", "--engine", "warp"],
        ["scan", "--grid", "many"],
        ["teleport"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert err.startswith("error:")
        assert "Traceback" not in err


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


def test_scan_with_the_fock_engine_on_a_mixture_is_an_error(capsys):
    code, out, err = run_cli(
        ["scan", "--state", json.dumps(MIXTURE), "--engine", "fock"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


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


def test_importing_the_package_does_not_load_numpy():
    probe = "import sys, bellsim; print('numpy' in sys.modules)"
    assert probe_without_thread_vars(probe) == "False"


def test_package_exports_resolve_on_first_use():
    import bellsim

    for name in bellsim.__all__:
        assert getattr(bellsim, name) is not None, name
    assert set(bellsim.__all__) <= set(dir(bellsim))
    namespace = {}
    exec("from bellsim import *", namespace)
    assert set(bellsim.__all__) <= set(namespace)
    assert namespace["vacuum_state"] is fock.vacuum_state
    with pytest.raises(AttributeError):
        bellsim.no_such_name
    with pytest.raises(AttributeError):
        bellsim.apply_creation


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
        {"out": 5},
    ],
    ids=lambda config: json.dumps(config),
)
def test_malformed_config_shapes_are_errors(config, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = ["run", "--config", str(path), "--state", "two_photon"]
    if "angles" not in config:
        argv += ["--angles", "0,0,0,0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
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
    code, out, err = run_cli(base + ["--state", json.dumps(SQUEEZED), "--cutoff", "200"], capsys)
    assert code == 1
    assert err.startswith("error: basis dimension ") and " exceeds " in err
    assert len(err.strip().splitlines()) == 1


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
