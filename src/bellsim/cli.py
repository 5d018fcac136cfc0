"""Command line front end: runs, sweeps, angle scans and validation.

Configuration comes from an optional JSON file plus command line flags;
flags win. All randomness is seeded, and CSV output is formatted with 17
significant digits so identical configurations produce identical bytes.

A command writes nothing: it returns (exit code, stdout lines, --out lines,
stderr lines), and `main` alone writes them once the command has finished,
so a command that fails leaves only its error line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import typing

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    # every matrix here is small, and an idle BLAS pool spins on another core
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

# gaussian and coherent are imported only by the commands and state kinds
# that use them, so a Fock job loads neither
from . import detection, fock
from .policy import DEFAULT_POLICY, BellSimError, ConfigError, NumericalPolicy

_PI_FRACTION = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)

_ENGINES = ("fock", "gaussian", "analytic", "both")
_POLICY_KEYS = {f.name for f in dataclasses.fields(NumericalPolicy)}

DEFAULT_SWEEP = {
    "u_start": 0.0,
    "u_stop": 1.2,
    "u_step": 0.02,
    "scenarios": ["equal", "zero", "opposite"],
    "kappas": [1.0, 0.9, 0.8],
}

CSV_FIELDS = ("u", "v", "kappa", "f", "neg_p_both", "violated")


def parse_angle(value):
    """Parse an angle given in radians or as a pi fraction like '3pi/8'."""
    if isinstance(value, bool):  # JSON true/false is a wrong shape, not 1 or 0
        raise ConfigError(f"cannot parse angle {value!r}")
    if isinstance(value, (int, float)):
        return _as_float(value, "angle")
    if not isinstance(value, str):
        raise ConfigError(f"cannot parse angle {value!r}")
    match = _PI_FRACTION.match(value)
    if match:
        sign = -1.0 if match.group(1) else 1.0
        factor = float(match.group(2)) if match.group(2) else 1.0
        divisor = float(match.group(3)) if match.group(3) else 1.0
        if divisor == 0.0:
            raise ConfigError(f"zero divisor in angle {value!r}")
        return sign * factor * math.pi / divisor
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"cannot parse angle {value!r}") from None


def _parse_angle_list(values, key):
    if values is None:  # no angles: run draws them, sweep takes its default
        return None
    if isinstance(values, str):
        values = [part.strip() for part in values.split(",")]
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key}: expected a list or a string, got {values!r}")
    if len(values) != 4:
        raise ConfigError(f"expected 4 angles, got {len(values)}")
    return detection.AngleSettings(*(parse_angle(v) for v in values))


def _read_json(what, text=None, path=None):
    """Parse text, or the UTF-8 file at path, as JSON; a parse error names what it read."""
    try:
        if path is not None:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        source = what if path is None else f"{what} {path}"
        raise ConfigError(f"{source}: {exc}") from None


def _check_keys(mapping, allowed, context, required=frozenset()):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} field(s): {', '.join(unknown)}")
    missing = sorted(required - set(mapping))
    if missing:
        raise ConfigError(f"{context} is missing field(s): {', '.join(missing)}")


def _as_float(value, context):
    # JSON true/false and numeric strings are wrong shapes, not numbers
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{context}: expected a number, got {value!r}") from None


def _as_finite(value, context):
    value = _as_float(value, context)
    if not math.isfinite(value):
        raise ConfigError(f"{context} must be finite, got {value!r}")
    return value


def _as_int(value, context):
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{context} must be finite, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{context}: expected an integer, got {value!r}") from None


def _expect(types, shape):
    """A reader that passes a value of one of ``types`` and refuses any other."""

    def read(value, context):
        if not isinstance(value, types):
            raise ConfigError(f"{context}: expected {shape}, got {value!r}")
        return value

    return read


_as_mapping = _expect(dict, "an object")
_as_list = _expect(list, "a list")


def _complex_entry(value, context):
    """Read one amplitude given as a number or a [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_float(value, context), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], context), _as_float(value[1], context))
    raise ConfigError(f"{context}: expected a number or [re, im] pair, got {value!r}")


def _amplitude_list(value, context):
    """Four amplitudes, one per mode, each a number or a [re, im] pair."""
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(f"{context}: expected a list of 4 amplitudes, got {value!r}")
    return [_complex_entry(entry, context) for entry in value]


def _read_engine(value, key):
    if value not in _ENGINES:
        raise ConfigError(f"unknown engine {value!r}")
    return value


def _int_at_least(low, message):
    def read(value, key):
        value = _as_int(value, key)
        if value < low:
            raise ConfigError(message)
        return value

    return read


def _read_policy(value, key):
    policy = _as_mapping(value, "policy")
    _check_keys(policy, _POLICY_KEYS, "policy")
    return dataclasses.replace(DEFAULT_POLICY, **{
        name: (_as_int if name == "max_dimension" else _as_finite)(item, f"policy {name}")
        for name, item in policy.items()
    })


def _read_sweep(value, key):
    from . import gaussian

    sweep = _as_mapping(value, "sweep")
    _check_keys(sweep, set(DEFAULT_SWEEP), "sweep")
    sweep = dict(DEFAULT_SWEEP, **sweep)
    for name in ("u_start", "u_stop", "u_step"):
        sweep[name] = _as_finite(sweep[name], f"sweep {name}")
    for scenario in _as_list(sweep["scenarios"], "sweep scenarios"):
        gaussian.scenario_v(scenario, 0.0)
    sweep["kappas"] = [
        _as_float(kappa, "sweep kappa") for kappa in _as_list(sweep["kappas"], "sweep kappas")
    ]
    return sweep


class _Field(typing.NamedTuple):
    """One setting of a command: its config key, its flag, its reader and its default."""

    key: str  # the config key, and the ExperimentConfig attribute it sets
    flag: str | None  # None for a key only a config file sets
    # (value, key) -> setting; None for a flag that sets the field of the key's
    # object named like the flag, which the key's own reader checks
    read: typing.Callable | None
    default: typing.Any  # a config value, read like one; None leaves the setting None
    options: dict | None  # argparse keywords of the flag


@dataclasses.dataclass
class ExperimentConfig:
    """Validated, merged settings for one CLI invocation; None where the command has none."""

    engine: str | None = None
    state: dict | None = None
    angles: detection.AngleSettings | None = None
    cutoff: int | None = None
    seed: int | None = None
    out: str | None = None
    grid: int | None = None
    refine: bool | None = None
    trials: int | None = None
    policy: NumericalPolicy | None = None
    sweep: dict | None = None

    @classmethod
    def load(cls, args):
        """Each setting of the command from its flag, else its config key, else its default."""
        _, fields, _ = _COMMANDS[args.command]
        given = vars(args)
        merged = {}
        if given.get("config"):
            merged = _as_mapping(_read_json("config file", path=given["config"]), "config file")
            refused = sorted(set(merged) - {field.key for field in fields})
            if refused:
                raise ConfigError(
                    f"config: {args.command} does not read {', '.join(map(repr, refused))}"
                )
        for field in fields:
            name = field.flag and field.flag[2:].replace("-", "_")
            if name not in given:
                continue
            if name == field.key:
                merged[name] = given[name]
            else:  # --u-start and the like set a field of the nested object
                nested = _as_mapping(merged.get(field.key, {}), field.key)
                merged[field.key] = dict(nested, **{name: given[name]})

        # read in ExperimentConfig's field order, whatever the flag order of the row
        readers = {field.key: field for field in fields if field.read}
        settings = {}
        for key in (f.name for f in dataclasses.fields(cls) if f.name in readers):
            read, default = readers[key].read, readers[key].default
            value = read(merged[key], key) if key in merged else None
            settings[key] = read(default, key) if value is None and default is not None else value
        return cls(**settings)


def _normalize_state(spec, key):
    """Accept a state as a dict, a JSON string, or a bare kind name."""
    if isinstance(spec, str):
        text = spec.strip()
        spec = _read_json(key, text) if text.startswith("{") else {"kind": text}
    if not isinstance(spec, dict):
        raise ConfigError(f"{key} must be a name or an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        known = ", ".join(sorted(_KINDS))
        raise ConfigError(f"unknown state kind {kind!r} (expected one of: {known})")
    row = _KINDS[kind]
    required = {"kind", *row.required}
    _check_keys(spec, required | set(row.optional), f"state[{kind}]", required=required)
    return spec


def _state_file(spec, engine, config):
    """Read a pure four-mode state from the JSON file at spec["path"].

    Schema: {"mode_count": 4, "cutoff": N, "amplitudes": [{"occupation":
    [n1, n2, n3, n4], "re": x, "im": y}, ...]}. The vector is normalized
    on load, at any scale; a non-finite re or im is an error.
    """
    if not isinstance(spec["path"], str):
        raise ConfigError(f"state file path: expected a string, got {spec['path']!r}")
    data = _as_mapping(_read_json("state file", path=spec["path"]), "state file")
    _check_keys(
        data,
        {"mode_count", "cutoff", "amplitudes"},
        "state file",
        required={"cutoff", "amplitudes"},
    )
    if data.get("mode_count", 4) != 4:
        raise ConfigError("state files must describe a four-mode state")
    cutoff = _as_int(data["cutoff"], "state file cutoff")
    if not isinstance(data["amplitudes"], list):
        raise ConfigError("state file amplitudes must be a list")
    basis = fock.enumerate_basis(4, cutoff, config.policy)
    vector = np.zeros(basis.size, dtype=np.complex128)
    seen = set()
    for entry in data["amplitudes"]:
        if not isinstance(entry, dict):
            raise ConfigError(f"state file amplitude {entry!r} is not an object")
        _check_keys(entry, {"occupation", "re", "im"}, "amplitude")
        occ = entry.get("occupation", [])
        if not isinstance(occ, list):
            raise ConfigError(f"occupation {occ!r} in state file is not a list")
        occ = tuple(_as_int(n, "occupation") for n in occ)
        if len(occ) != 4 or min(occ) < 0 or sum(occ) > cutoff:
            raise ConfigError(
                f"occupation {list(occ)} in state file is not four photon "
                f"counts >= 0 with a total of at most the cutoff {cutoff}"
            )
        if occ in seen:
            raise ConfigError(f"duplicate occupation {occ} in state file")
        seen.add(occ)
        vector[basis.index_of(occ)] = complex(
            _as_finite(entry.get("re", 0.0), f"amplitude re of occupation {list(occ)}"),
            _as_finite(entry.get("im", 0.0), f"amplitude im of occupation {list(occ)}"),
        )
    peak = np.max(np.abs(vector.view(np.float64)))
    if peak == 0.0:
        raise ConfigError("state file holds a zero vector")
    # a power of two near the peak scales exactly, and keeps the norm finite
    vector = np.ldexp(vector.view(np.float64), -math.frexp(peak)[1]).view(np.complex128)
    return fock.OccupationState(basis, vector / np.linalg.norm(vector), 0.0)


def _classical(spec, engine, config):
    """Build a vacuum, coherent or mixture state as a coherent.ClassicalMixture."""
    from . import coherent

    if spec["kind"] == "mixture":
        weights = [
            _as_float(w, "mixture weight") for w in _as_list(spec["weights"], "mixture weights")
        ]
        components = [
            _amplitude_list(row, "mixture component")
            for row in _as_list(spec["components"], "mixture components")
        ]
        mixture = coherent.ClassicalMixture(np.asarray(weights), np.asarray(components))
    else:  # the vacuum is the coherent state with every amplitude zero
        z = _amplitude_list(spec.get("z", [0, 0, 0, 0]), "coherent z")
        mixture = coherent.CoherentAmplitudes(np.asarray(z))
    if engine == "fock":
        return fock.synthesize_coherent_mixture(
            mixture.weights, mixture.components, config.cutoff, config.policy
        )
    return mixture


def _squeezed_thermal(spec, engine, config):
    from . import gaussian

    built = gaussian.SqueezedThermalSpec(
        u=_as_float(spec["u"], "u"),
        v=_as_float(spec["v"], "v"),
        kappa=_as_float(spec.get("kappa", 1.0), "kappa"),
    )
    if engine == "fock":
        return gaussian.fock_replica(built, config.cutoff, config.policy)
    return gaussian.build_squeezed_thermal(built)


class _Kind(typing.NamedTuple):
    """How the CLI reads and builds one state kind."""

    required: tuple  # fields besides "kind"
    optional: tuple
    engines: tuple  # the engines that can evaluate the kind; the first is the default
    build: typing.Callable  # (spec, engine, config) -> state


_KINDS = {
    # passive optics preserve the photon total, so the natural two-photon
    # cutoff is exact regardless of config.cutoff
    "two_photon": _Kind((), (), ("fock",), lambda *_: fock.two_photon_state()),
    "file": _Kind(("path",), (), ("fock",), _state_file),
    "vacuum": _Kind((), (), ("analytic", "fock"), _classical),
    "coherent": _Kind(("z",), (), ("analytic", "fock"), _classical),
    "mixture": _Kind(("weights", "components"), (), ("analytic", "fock"), _classical),
    "squeezed_thermal": _Kind(
        ("u", "v"), ("kappa",), ("gaussian", "fock", "both"), _squeezed_thermal
    ),
}


def _resolve_engine(config):
    """Pick the evaluation path for the configured state."""
    if config.state is None:
        raise ConfigError("a state is required (set state in the config or --state)")
    kind = config.state["kind"]
    allowed = _KINDS[kind].engines
    engine = config.engine or allowed[0]
    if engine not in allowed:
        raise ConfigError(
            f"engine {engine!r} cannot evaluate state kind {kind!r} "
            f"(engines for {kind}: {', '.join(allowed)})"
        )
    return engine


def build_state(config, engine):
    """Materialize the configured state for the chosen engine."""
    return _KINDS[config.state["kind"]].build(config.state, engine, config)


def _format(value):
    return "%.17g" % value


_ANGLES_LINE = "theta1=%.6f theta2=%.6f theta1'=%.6f theta2'=%.6f"

_REPORT_CSV_FIELDS = (
    "p_tt", "p_t_talt", "p_talt_t", "p_talt_talt", "p_t_any", "p_talt_any", "p_any_t",
    "p_any_any", "f", "lower_margin", "upper_margin", "tail_err",
)

# the angles, the numbers of _REPORT_CSV_FIELDS in their order, and the verdict
_REPORT_TEXT = (
    "angles: " + _ANGLES_LINE + "\n"
    "P(t1,t2)=%.12f  P(t1,t2')=%.12f  P(t1',t2)=%.12f  P(t1',t2')=%.12f\n"
    "P(t1,any)=%.12f  P(t1',any)=%.12f  P(any,t2)=%.12f  P(any,any)=%.12f\n"
    "f = %.12f   margins: lower=%.3e upper=%.3e   tail=%.1e\n"
    "verdict: %s"
)


def _report_values(report):
    """The report's four angles and the twelve numbers of _REPORT_CSV_FIELDS."""
    numbers = tuple(getattr(report, name) for name in _REPORT_CSV_FIELDS)
    return dataclasses.astuple(report.angles) + numbers


def _report_lines(report):
    return (_REPORT_TEXT % (*_report_values(report), report.verdict)).split("\n")


def _report_csv(report):
    head = ",".join(("theta1,theta2,theta1_alt,theta2_alt",) + _REPORT_CSV_FIELDS)
    cells = [_format(v) for v in _report_values(report)] + [report.verdict]
    return [head + ",verdict", ",".join(cells)]


def cmd_run(config):
    """Evaluate the CH functional once and report it in full."""
    engine = _resolve_engine(config)
    engines = ("gaussian", "fock") if engine == "both" else (engine,)
    states = [build_state(config, name) for name in engines]
    angles = config.angles
    lines = []
    if angles is None:
        rng = np.random.default_rng(config.seed)
        angles = detection.AngleSettings(*rng.uniform(0.0, math.pi, size=4))
        lines.append(f"no angles given; drew random settings with seed {config.seed}")
    reports = [detection.ch_functional(state, angles, config.policy) for state in states]
    if engine == "both":
        g_report, f_report = reports
        gap = max(
            abs(getattr(g_report, name) - getattr(f_report, name))
            for name in ("p_tt", "p_t_any", "p_any_t", "p_any_any", "f")
        )
        lines += [
            "gaussian engine:", *_report_lines(g_report),
            f"fock engine (cutoff {config.cutoff}):", *_report_lines(f_report),
            f"largest cross-engine gap: {gap:.3e}",
        ]
    else:
        lines += _report_lines(reports[0])
    code = 2 if reports[0].verdict == detection.INCONCLUSIVE else 0
    return code, lines, _report_csv(reports[0]), []


def cmd_sweep(config):
    """Sweep the squeezed thermal family and emit the plot CSV."""
    from . import gaussian

    if config.engine not in (None, "gaussian"):
        raise ConfigError("sweep uses the gaussian engine")
    sweep = config.sweep
    start, stop, step = sweep["u_start"], sweep["u_stop"], sweep["u_step"]
    if step <= 0.0:
        raise ConfigError("u_step must be positive")
    if stop < start:
        raise ConfigError("u_stop must not be below u_start")
    # counted before any list is built: the rows, and the u list, which is
    # built even with no (scenario, kappa) pair; a span that overflows in
    # steps counts as infinitely many
    limit = config.policy.max_dimension
    pairs = len(sweep["scenarios"]) * len(sweep["kappas"])
    span = (stop - start) / step
    count = round(span) + 1 if math.isfinite(span) else math.inf
    if count * max(pairs, 1) > limit:
        raise ConfigError(
            f"sweep of {count} u values x {pairs} (scenario, kappa) pairs exceeds "
            f"the configured maximum of {limit} points (policy max_dimension)"
        )
    u_values = [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]

    rows = gaussian.sweep_rows(
        u_values, sweep["scenarios"], sweep["kappas"], config.angles, config.policy
    )
    lines = [",".join(CSV_FIELDS)]
    for row in rows:
        cells = [_format(row[name]) for name in CSV_FIELDS[:-1]]
        lines.append(",".join(cells + [str(row["violated"])]))
    violated = sum(row["violated"] for row in rows)
    note = f"swept {len(rows)} points; {violated} violated"
    return 0, [] if config.out is not None else lines, lines, [note]


def cmd_scan(config):
    """Grid-search the four angles for the configured state."""
    engine = _resolve_engine(config)
    if engine == "both":
        raise ConfigError("scan uses one engine at a time")
    # each rate table holds n^2 entries, and the search takes O(n^3) time
    limit = config.policy.max_dimension
    if config.grid > math.isqrt(limit):
        raise ConfigError(
            f"scan grid of {config.grid} points per angle fills tables of {config.grid}^2 "
            f"entries, past the configured maximum of {limit} (policy max_dimension)"
        )
    state = build_state(config, engine)
    result = detection.angle_scan(state, grid_density=config.grid, refine=config.refine)
    report = detection.ch_functional(state, result.angles, config.policy)
    lines = [
        "best angles: " + _ANGLES_LINE % dataclasses.astuple(result.angles),
        f"grid f = {result.grid_f:.12f} over {result.grid_density}^4 points",
        *([f"refined f = {result.f:.12f}"] if result.refined else []),
        f"verdict at best angles: {report.verdict}",
    ]
    return 0, lines, [], []


# tests lower these to prove that each comparison runs: its layer must then fail
GOLDEN_TOL = 1e-10
CROSS_TOL = 1e-6
CLASSICAL_TOL = 1e-9


def run_validation(seed, trials, cutoff, policy=DEFAULT_POLICY):
    """Run the self-check suites; returns (ok, printed lines)."""
    from . import coherent, gaussian

    lines = []
    verdicts = []

    def check(text, ok):
        verdicts.append(ok)
        lines.append(f"{text} -> {'pass' if ok else 'FAIL'}")

    def vacuum(state):
        return gaussian.vacuum_probability(state, (0,))

    def thermal(u, kappa):
        return gaussian.build_squeezed_thermal(gaussian.SqueezedThermalSpec(u, 0.0, kappa))

    def single_mode(u):
        return gaussian.GaussianState(np.diag([math.exp(-2.0 * u), math.exp(2.0 * u)]))

    us = (0.25, 0.5, 1.0)
    gaps = [abs(vacuum(single_mode(u)) - 1.0 / math.cosh(u)) for u in us]
    gaps += [abs(vacuum(thermal(0.0, k)) - 2.0 * k / (1.0 + k)) for k in (0.5, 0.8, 1.0)]
    gaps += [abs(gaussian.is_squeezed(thermal(u, 1.0))[1] - math.exp(-2 * u) / 2) for u in us]
    worst_golden = max(gaps)
    check(f"golden values: worst gap {worst_golden:.3e} (tol {GOLDEN_TOL:.1e})",
          worst_golden <= GOLDEN_TOL)

    def compared(state, settings):
        # P(t1, t2), P(t1, any), P(any, t2) and P(any, any) read theta1 and
        # theta2 only, so one table call covers every setting: P(t1, t2) is
        # the diagonal of the grid
        p_tt, p_t_any, p_any_t, p_any_any = detection.state_tables(state)[0](
            settings[:, 0], settings[:, 1]
        )
        return np.concatenate([np.diagonal(p_tt), p_t_any, p_any_t, np.atleast_1d(p_any_any)])

    rng = np.random.default_rng(seed)
    worst_cross = 0.0
    for u in (0.1, 0.3):
        for v in (0.1, 0.3):
            spec = gaussian.SqueezedThermalSpec(u, v, 1.0)
            g_state = gaussian.build_squeezed_thermal(spec)
            f_state = gaussian.fock_replica(spec, cutoff, policy)
            # three seeded settings, folded into [0, pi) as AngleSettings folds them
            settings = rng.uniform(0.0, math.pi, size=(3, 4)) % math.pi
            gap = np.abs(compared(g_state, settings) - compared(f_state, settings))
            worst_cross = max(worst_cross, float(gap.max()))
    check(f"cross-engine rates (cutoff {cutoff}): worst gap {worst_cross:.3e} "
          f"(tol {CROSS_TOL:.1e})", worst_cross <= CROSS_TOL)

    if trials == 0:
        lines.append("classical nonviolation: skipped (trials = 0)")
    else:
        suite = coherent.classical_nonviolation_suite(seed, trials, policy)
        check(f"classical nonviolation ({suite.trials} trials): "
              f"violations {suite.violations}, worst f {suite.worst_f:.3e}, "
              f"worst lower margin {suite.worst_lower_margin:.3e}",
              suite.violations == 0 and suite.worst_f <= CLASSICAL_TOL
              and suite.worst_lower_margin >= -CLASSICAL_TOL)
        if suite.failing_seed is not None:
            lines.append(f"first failing (seed, trial): {suite.failing_seed}")
    return all(verdicts), lines


def cmd_validate(config):
    ok, lines = run_validation(config.seed, config.trials, config.cutoff, config.policy)
    lines.append(f"validation: {'pass' if ok else 'FAIL'}")
    warnings = ["warning: trials = 0, classical suite was skipped"] if config.trials == 0 else []
    return 0 if ok else 1, lines, [], warnings


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError: exit code 2 means "inconclusive"."""

    def error(self, message):
        raise ConfigError(message)


_ENGINE = _Field("engine", "--engine", _read_engine, None, dict(choices=_ENGINES))
_STATE = _Field("state", "--state", _normalize_state, None, dict(help="state kind or JSON object"))
_CUTOFF = _Field("cutoff", "--cutoff", _int_at_least(1, "cutoff must be at least 1"), 16,
                 dict(type=int, help="total-photon cutoff (default 16)"))
_SEED = _Field("seed", "--seed", _int_at_least(0, "seed must not be negative"), 0,
               dict(type=int, help="seed for random draws (default 0)"))
_OUT = _Field("out", "--out", _expect((str, type(None)), "a path"), None,
              dict(help="output path (default stdout)"))
_POLICY = _Field("policy", None, _read_policy, {}, None)

# name -> (help, the settings the command reads, in flag order, the command).
# A command takes only these flags and config keys; flags win over the file.
_COMMANDS = {
    "run": ("evaluate the CH functional at fixed angles", (
        _ENGINE, _CUTOFF, _SEED, _OUT, _STATE,
        _Field("angles", "--angles", _parse_angle_list, None,
               dict(help="four angles, e.g. 'pi/8,pi/4,3pi/8,0'")),
        _POLICY,
    ), cmd_run),
    "sweep": ("sweep the squeezed thermal family to CSV", (
        _ENGINE, _OUT,
        _Field("angles", "--angles", _parse_angle_list, "pi/8,pi/4,3pi/8,0",
               dict(help="four fixed angles for every sweep point")),
        *(_Field("sweep", flag, None, None, dict(type=float))
          for flag in ("--u-start", "--u-stop", "--u-step")),
        _POLICY,
        _Field("sweep", None, _read_sweep, {}, None),
    ), cmd_sweep),
    "scan": ("search all four angles for the best f", (
        _ENGINE, _CUTOFF, _STATE,
        _Field("grid", "--grid", _as_int, 16,
               dict(type=int, help="grid points per angle (default 16)")),
        _Field("refine", "--refine", _expect(bool, "true or false"), False,
               dict(action="store_true", help="polish the best grid point")),
        _POLICY,
    ), cmd_scan),
    "validate": ("run the built-in self checks", (
        _CUTOFF, _SEED,
        _Field("trials", "--trials", _int_at_least(0, "trials must not be negative"), 200,
               dict(type=int, help="classical suite size (default 200)")),
        _POLICY,
    ), cmd_validate),
}


def build_parser():
    parser = _Parser(
        prog="bellsim",
        description="Generalized Clauser-Horne tests on four-mode field states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fields, _) in _COMMANDS.items():
        # a flag left out is absent from the parsed arguments, not None
        command = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        command.add_argument("--config", help="JSON config file")
        for field in fields:
            if field.flag:
                command.add_argument(field.flag, **field.options)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = ExperimentConfig.load(args)
        code, out, csv, err = _COMMANDS[args.command][2](config)
        if config.out is not None:
            with open(config.out, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(line + "\n" for line in csv)
        sys.stderr.writelines(line + "\n" for line in err)
        sys.stdout.writelines(line + "\n" for line in out)
        return code
    except (BellSimError, ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
