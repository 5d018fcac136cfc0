"""The CLI contract over fuzzed command lines and config files, and README.md's examples.

Every input ends in exit code 0, 1 or 2 and never in a traceback. Exit 1 is
one `error:` line with nothing on stdout, or a `validate` whose checks
failed; exit 2 is an inconclusive verdict and nothing else.
"""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellsim import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# wrong shapes, out-of-range and non-finite values, and an integer past any float
BAD = [-1, 0, 2.5, "x", True, None, math.nan, math.inf, 10**400]
BAD_TEXT = ["-1", "0", "2.5", "x", "true", "null", "NaN", "1e999", str(10**400)]

# valid values of each config key and nested field; cutoff, grid and trials
# stay small, and out is never a path, so no run writes a file
TOLERANCES = [0.0, 1e-9, 1e-3, 5.0]
VALID = {
    "engine": list(cli._ENGINES),
    "cutoff": list(range(1, 9)),
    "seed": [0, 1, 2, 3],
    "grid": list(range(2, 7)),
    "trials": list(range(6)),
    "refine": [False, True],
    "out": [None],
    "angles": ["pi/8,pi/4,3pi/8,0", "0,1,2,3", ["pi/8", "pi/4", "3pi/8", 0], None],
    "u_start": [0.0, 0.2],
    "u_stop": [0.4, 1.0],
    "u_step": [0.1, 0.25],
    "scenarios": [["equal"], ["zero", "opposite"], []],
    "verdict_tol": TOLERANCES,
    "coherent_tail_tol": TOLERANCES,
    "squeeze_limit": TOLERANCES,
}
# each run sets these, in its config file or by a flag, so that no run falls
# back to the cutoff 16, grid 16 or 200 trials of the defaults
SET_ALWAYS = {"cutoff", "grid", "trials", "state"}

STATE_FIELDS = {
    "two_photon": {},
    "vacuum": {},
    "coherent": {"z": [0.5, [0.1, 0.2], 0, 0.3]},
    "mixture": {"weights": [0.4, 0.6], "components": [[1, 0.5, 0.8, 0.2], [0.5, 1, 0.3, 0.9]]},
    "squeezed_thermal": {"u": 0.3, "v": 0.2, "kappa": 1.0},
    "file": {"path": None},  # the state file of the example
}
assert set(STATE_FIELDS) == set(cli._KINDS)

STATE_FILE = {
    "mode_count": 4,
    "cutoff": 2,
    "amplitudes": [
        {"occupation": [1, 0, 0, 1], "re": 1.0, "im": 0.0},
        {"occupation": [0, 1, 1, 0], "re": 1.0, "im": 0.0},
    ],
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rnd=st.randoms(use_true_random=False), fault_rate=st.sampled_from([0.0, 0.05, 0.2, 0.5]))
def test_main_keeps_its_contract(rnd, fault_rate, tmp_path):
    def faulty():
        return rnd.random() < fault_rate

    def pick(valid, bad=BAD):
        """A valid value, or at the example's fault rate a wrong one."""
        return rnd.choice(bad if faulty() else valid)

    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(STATE_FILE))

    def state():
        kind = pick(sorted(cli._KINDS), BAD + ["warp_core"])
        spec = {"kind": kind}
        for name, value in STATE_FIELDS.get(kind, {}).items():
            if not faulty():  # else the field is missing
                spec[name] = pick([str(state_path) if name == "path" else value])
        if faulty():
            spec["bogus"] = 1
        return rnd.choice([spec, json.dumps(spec), kind])

    def config_value(key):
        if key == "state":
            return state()
        if key == "out":
            return pick(VALID["out"], [value for value in BAD if not isinstance(value, str)])
        if key == "sweep":
            sweep = {name: pick(VALID[name]) for name in ("u_start", "u_stop", "u_step",
                                                          "scenarios") if rnd.random() < 0.5}
            if rnd.random() < 0.5:
                sweep["kappas"] = [pick([1.0, 0.9]) for _ in range(rnd.randint(0, 3))]
            return pick([sweep])
        return pick(VALID[key])

    def flag_text(name):
        if name == "state":
            value = state()
            return value if isinstance(value, str) else json.dumps(value)
        valid = [value for value in VALID[name] if value is not None and not isinstance(value, list)]
        return pick([str(value) for value in valid], BAD_TEXT)

    command = rnd.choice(sorted(cli._COMMANDS))
    _, fields, _ = cli._COMMANDS[command]
    keys = sorted({field.key for field in fields} - {"policy"})
    argv = [command]

    config = None
    if rnd.random() < 0.5:
        # every config file bounds the Fock basis and the sweep at 5000
        policy = {name: pick(TOLERANCES) for name in ("verdict_tol", "coherent_tail_tol",
                                                      "squeeze_limit") if rnd.random() < 0.3}
        config = {"policy": {"max_dimension": 5000, **policy}}
        config.update({key: config_value(key) for key in keys if rnd.random() < 0.5})
        if faulty():  # a key of another command, or of none
            config[rnd.choice(["bogus", "grid", "trials", "sweep"])] = 1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]

    for field in fields:
        if not field.flag or field.flag == "--out":
            continue
        name = field.flag[2:].replace("-", "_")
        needed = name in SET_ALWAYS and (config is None or name not in config)
        if needed or rnd.random() < 0.5:
            argv += [field.flag] if field.flag == "--refine" else [field.flag, flag_text(name)]
    if faulty():  # a flag of another command
        argv += ["--grid", "4"] if command != "scan" else ["--trials", "4"]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert code in (0, 1, 2)
    if code == 1 and not (command == "validate" and out.endswith("validation: FAIL\n")):
        assert out == ""
        assert len(errors) == 1
        assert err.splitlines() == errors
    else:
        assert errors == []
    if code == 2:
        assert "verdict: inconclusive" in out.splitlines()


def _fenced_blocks(text):
    """(language, body) of each fenced block of a markdown text."""
    return re.findall(r"^```(\w*)\n(.*?)^```", text, re.DOTALL | re.MULTILINE)


def test_the_readme_commands_run_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands, config_name = [], None
    for language, body in _fenced_blocks(README.read_text()):
        if language == "json":
            # the JSON block after a --config command is that config file
            if config_name:
                (tmp_path / config_name).write_text(body)
                config_name = None
            continue
        for line in body.splitlines():
            if line.startswith("bellsim "):
                argv = shlex.split(line, comments=True)[1:]
                commands.append(argv)
                if "--config" in argv:
                    config_name = argv[argv.index("--config") + 1]
    assert len(commands) == 12
    # the config files are written before the commands that read them run
    assert (tmp_path / "experiment.json").exists() and (tmp_path / "sweep.json").exists()
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv


def test_the_readme_library_sketch_prints_what_it_says():
    (sketch,) = [body for language, body in _fenced_blocks(README.read_text())
                 if language == "python"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(sketch, {})
    claimed = re.findall(r"# (\d\.\d+)\.\.\. (\w+)", sketch)
    measured = (0.20710678118654768, 0.0634827522327206)
    lines = printed.getvalue().splitlines()
    assert len(lines) == len(claimed) == len(measured)
    for line, (digits, verdict), expected in zip(lines, claimed, measured):
        f, printed_verdict = line.split()
        assert printed_verdict == verdict == "violated"
        assert abs(float(f) - expected) < 1e-12
        assert f"{float(f):.{len(digits) - 2}f}" == digits
