"""Command line front end: runs, sweeps, angle scans and validation.

Configuration comes from an optional JSON file plus command line flags;
flags win. All randomness is seeded, and CSV output is formatted with 17
significant digits so identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    # every matrix here is small, and an idle BLAS pool spins on another core
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import coherent, detection, fock, gaussian
from .policy import DEFAULT_POLICY, BellSimError, ConfigError, NumericalPolicy

_PI_FRACTION = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)

_STATE_KEYS = {
    "two_photon": {"kind"},
    "vacuum": {"kind"},
    "coherent": {"kind", "z"},
    "mixture": {"kind", "weights", "components"},
    "squeezed_thermal": {"kind", "u", "v", "kappa"},
    "file": {"kind", "path"},
}
# every allowed field is required except these
_STATE_OPTIONAL = {"kappa"}
_ENGINES = ("fock", "gaussian", "analytic", "both")
# the engines that can evaluate each state kind; the first is the default
_STATE_ENGINES = {
    "two_photon": ("fock",),
    "file": ("fock",),
    "vacuum": ("analytic", "fock"),
    "coherent": ("analytic", "fock"),
    "mixture": ("analytic", "fock"),
    "squeezed_thermal": ("gaussian", "fock", "both"),
}
_POLICY_KEYS = {f.name for f in dataclasses.fields(NumericalPolicy)}
_SWEEP_KEYS = {"u_start", "u_stop", "u_step", "scenarios", "kappas"}
_CONFIG_KEYS = {
    "engine",
    "state",
    "angles",
    "cutoff",
    "seed",
    "out",
    "grid",
    "refine",
    "trials",
    "policy",
    "sweep",
}

DEFAULT_SWEEP = {
    "u_start": 0.0,
    "u_stop": 1.2,
    "u_step": 0.02,
    "scenarios": list(gaussian.SWEEP_SCENARIOS),
    "kappas": [1.0, 0.9, 0.8],
}
DEFAULT_ANGLES = ("pi/8", "pi/4", "3pi/8", "0")

CSV_FIELDS = ("u", "v", "kappa", "f", "neg_p_both", "violated")


def parse_angle(value):
    """Parse an angle given in radians or as a pi fraction like '3pi/8'."""
    if isinstance(value, bool):  # JSON true/false is a wrong shape, not 1 or 0
        raise ConfigError(f"cannot parse angle {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
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


def _parse_angle_list(values):
    if isinstance(values, str):
        values = [part.strip() for part in values.split(",")]
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"angles: expected a list or a string, got {values!r}")
    if len(values) != 4:
        raise ConfigError(f"expected 4 angles, got {len(values)}")
    return detection.AngleSettings(*(parse_angle(v) for v in values))


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


def _as_mapping(value, context):
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected an object, got {value!r}")
    return value


def _as_list(value, context):
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list, got {value!r}")
    return value


def _complex_entry(value, context):
    """Read one amplitude given as a number or a [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value, 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], context), _as_float(value[1], context))
    raise ConfigError(f"{context}: expected a number or [re, im] pair, got {value!r}")


def _amplitude_list(value, context):
    """Four amplitudes, one per mode, each a number or a [re, im] pair."""
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(f"{context}: expected a list of 4 amplitudes, got {value!r}")
    return [_complex_entry(entry, context) for entry in value]


@dataclasses.dataclass
class ExperimentConfig:
    """Validated, merged settings for one CLI invocation."""

    engine: str | None = None
    state: dict | None = None
    angles: detection.AngleSettings | None = None
    cutoff: int = 16
    seed: int = 0
    out: str | None = None
    grid: int = 16
    refine: bool = False
    trials: int = 200
    policy: NumericalPolicy = DEFAULT_POLICY
    sweep: dict = dataclasses.field(default_factory=lambda: dict(DEFAULT_SWEEP))

    @classmethod
    def load(cls, args):
        raw = {}
        if args.config:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object")
        _check_keys(raw, _CONFIG_KEYS, "config")

        merged = dict(raw)
        for name in ("engine", "cutoff", "seed", "out", "grid", "trials"):
            value = getattr(args, name, None)
            if value is not None:
                merged[name] = value
        if getattr(args, "refine", False):
            merged["refine"] = True
        if getattr(args, "state", None) is not None:
            merged["state"] = args.state
        if getattr(args, "angles", None) is not None:
            merged["angles"] = args.angles
        for name in ("u_start", "u_stop", "u_step"):
            value = getattr(args, name, None)
            if value is not None:
                merged.setdefault("sweep", {})
                merged["sweep"] = dict(merged["sweep"], **{name: value})

        config = cls()
        if "engine" in merged:
            engine = merged["engine"]
            if engine not in _ENGINES:
                raise ConfigError(f"unknown engine {engine!r}")
            config.engine = engine
        if "state" in merged:
            config.state = _normalize_state(merged["state"])
        if "angles" in merged and merged["angles"] is not None:
            config.angles = _parse_angle_list(merged["angles"])
        for name in ("cutoff", "seed", "grid", "trials"):
            if name in merged:
                setattr(config, name, _as_int(merged[name], name))
        if config.cutoff < 1:
            raise ConfigError("cutoff must be at least 1")
        if config.trials < 0:
            raise ConfigError("trials must not be negative")
        if "out" in merged:
            if not isinstance(merged["out"], (str, type(None))):
                raise ConfigError(f"out: expected a path, got {merged['out']!r}")
            config.out = merged["out"]
        if "refine" in merged:
            if not isinstance(merged["refine"], bool):
                raise ConfigError(f"refine: expected true or false, got {merged['refine']!r}")
            config.refine = merged["refine"]
        if "policy" in merged:
            policy = _as_mapping(merged["policy"], "policy")
            _check_keys(policy, _POLICY_KEYS, "policy")
            overrides = {}
            for name, value in policy.items():
                read = _as_int if name == "max_dimension" else _as_finite
                overrides[name] = read(value, f"policy {name}")
            config.policy = dataclasses.replace(DEFAULT_POLICY, **overrides)
        if "sweep" in merged:
            sweep = _as_mapping(merged["sweep"], "sweep")
            _check_keys(sweep, _SWEEP_KEYS, "sweep")
            config.sweep = dict(DEFAULT_SWEEP, **sweep)
            for name in ("u_start", "u_stop", "u_step"):
                config.sweep[name] = _as_finite(config.sweep[name], f"sweep {name}")
            for scenario in _as_list(config.sweep["scenarios"], "sweep scenarios"):
                gaussian.scenario_v(scenario, 0.0)
            config.sweep["kappas"] = [
                _as_float(kappa, "sweep kappa")
                for kappa in _as_list(config.sweep["kappas"], "sweep kappas")
            ]
        return config


def _normalize_state(spec):
    """Accept a state as a dict, a JSON string, or a bare kind name."""
    if isinstance(spec, str):
        text = spec.strip()
        spec = json.loads(text) if text.startswith("{") else {"kind": text}
    if not isinstance(spec, dict):
        raise ConfigError(f"state must be a name or an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _STATE_KEYS:
        known = ", ".join(sorted(_STATE_KEYS))
        raise ConfigError(f"unknown state kind {kind!r} (expected one of: {known})")
    allowed = _STATE_KEYS[kind]
    _check_keys(spec, allowed, f"state[{kind}]", required=allowed - _STATE_OPTIONAL)
    return spec


def _load_state_file(path, policy):
    """Read a pure four-mode state from its JSON description.

    Schema: {"mode_count": 4, "cutoff": N, "amplitudes": [{"occupation":
    [n1, n2, n3, n4], "re": x, "im": y}, ...]}. The vector is normalized
    on load.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError("state file must hold a JSON object")
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
    basis = fock.enumerate_basis(4, cutoff, policy)
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
        index = basis.index_of(occ)
        vector[index] = complex(
            _as_float(entry.get("re", 0.0), "amplitude re"),
            _as_float(entry.get("im", 0.0), "amplitude im"),
        )
    norm = float(np.linalg.norm(vector))
    if norm < 1e-12:
        raise ConfigError("state file holds a zero vector")
    return fock.OccupationState(basis, vector / norm, 0.0)


def _resolve_engine(config):
    """Pick the evaluation path for the configured state."""
    if config.state is None:
        raise ConfigError("a state is required (set state in the config or --state)")
    kind = config.state["kind"]
    allowed = _STATE_ENGINES[kind]
    engine = config.engine or allowed[0]
    if engine not in allowed:
        raise ConfigError(
            f"engine {engine!r} cannot evaluate state kind {kind!r} "
            f"(engines for {kind}: {', '.join(allowed)})"
        )
    if kind == "squeezed_thermal":
        kappa = _as_float(config.state.get("kappa", 1.0), "kappa")
        if engine in ("fock", "both") and kappa != 1.0:
            raise ConfigError(f"engine {engine!r} needs kappa = 1 for the Fock replica")
    return engine


def _coherent_amplitudes(spec):
    if spec["kind"] == "vacuum":
        return coherent.CoherentAmplitudes(np.zeros(4, dtype=np.complex128))
    z = _amplitude_list(spec["z"], "coherent z")
    return coherent.CoherentAmplitudes(np.asarray(z))


def _mixture(spec):
    weights = [
        _as_float(w, "mixture weight") for w in _as_list(spec["weights"], "mixture weights")
    ]
    components = [
        _amplitude_list(row, "mixture component")
        for row in _as_list(spec["components"], "mixture components")
    ]
    return coherent.ClassicalMixture(np.asarray(weights), np.asarray(components))


def _squeezed_spec(spec):
    return gaussian.SqueezedThermalSpec(
        u=_as_float(spec["u"], "u"),
        v=_as_float(spec["v"], "v"),
        kappa=_as_float(spec.get("kappa", 1.0), "kappa"),
    )


def build_state(config, engine):
    """Materialize the configured state for the chosen engine."""
    spec = config.state
    kind = spec["kind"]
    if kind == "two_photon":
        # passive optics preserve the photon total, so the natural
        # two-photon cutoff is exact regardless of config.cutoff
        return fock.two_photon_state()
    if kind == "file":
        if not isinstance(spec["path"], str):
            raise ConfigError(f"state file path: expected a string, got {spec['path']!r}")
        return _load_state_file(spec["path"], config.policy)
    if kind in ("vacuum", "coherent"):
        amplitudes = _coherent_amplitudes(spec)
        if engine == "fock":
            return fock.synthesize_coherent(amplitudes.z, config.cutoff, config.policy)
        return amplitudes
    if kind == "mixture":
        return _mixture(spec)
    if kind == "squeezed_thermal":
        built = _squeezed_spec(spec)
        if engine == "fock":
            return gaussian.fock_equivalent_state(built, config.cutoff, config.policy)
        return gaussian.build_squeezed_thermal(built)
    raise ConfigError(f"unhandled state kind {kind!r}")


def _report_for(state, angles, config, engine):
    if engine == "fock" and config.state["kind"] == "mixture":
        return coherent.mixture_fock_report(state, angles, config.cutoff, config.policy)
    return detection.ch_functional(state, angles, config.policy)


def _format(value):
    return "%.17g" % value


def _print_report(report, label=None):
    angles = report.angles
    if label:
        print(label)
    print(
        "angles: theta1=%.6f theta2=%.6f theta1'=%.6f theta2'=%.6f"
        % (angles.theta1, angles.theta2, angles.theta1_alt, angles.theta2_alt)
    )
    print(
        "P(t1,t2)=%.12f  P(t1,t2')=%.12f  P(t1',t2)=%.12f  P(t1',t2')=%.12f"
        % (report.p_tt, report.p_t_talt, report.p_talt_t, report.p_talt_talt)
    )
    print(
        "P(t1,any)=%.12f  P(t1',any)=%.12f  P(any,t2)=%.12f  P(any,any)=%.12f"
        % (report.p_t_any, report.p_talt_any, report.p_any_t, report.p_any_any)
    )
    print(
        "f = %.12f   margins: lower=%.3e upper=%.3e   tail=%.1e"
        % (report.f, report.lower_margin, report.upper_margin, report.tail_err)
    )
    print(f"verdict: {report.verdict}")


def _write_lines(path, lines):
    if path is None:
        sys.stdout.write("".join(lines))
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(lines))


def _report_csv(report):
    angles = report.angles
    head = (
        "theta1,theta2,theta1_alt,theta2_alt,"
        "p_tt,p_t_talt,p_talt_t,p_talt_talt,p_t_any,p_talt_any,p_any_t,p_any_any,"
        "f,lower_margin,upper_margin,tail_err,verdict\n"
    )
    cells = [
        _format(v)
        for v in (
            angles.theta1,
            angles.theta2,
            angles.theta1_alt,
            angles.theta2_alt,
            report.p_tt,
            report.p_t_talt,
            report.p_talt_t,
            report.p_talt_talt,
            report.p_t_any,
            report.p_talt_any,
            report.p_any_t,
            report.p_any_any,
            report.f,
            report.lower_margin,
            report.upper_margin,
            report.tail_err,
        )
    ]
    return [head, ",".join(cells + [report.verdict]) + "\n"]


def _exit_code(report):
    return 2 if report.verdict == detection.INCONCLUSIVE else 0


def cmd_run(config):
    """Evaluate the CH functional once and print the full report."""
    engine = _resolve_engine(config)
    angles = config.angles
    if angles is None:
        rng = np.random.default_rng(config.seed)
        angles = detection.AngleSettings(*rng.uniform(0.0, math.pi, size=4))
        print(f"no angles given; drew random settings with seed {config.seed}")

    if engine == "both":
        g_report, f_report = (
            detection.ch_functional(build_state(config, name), angles, config.policy)
            for name in ("gaussian", "fock")
        )
        _print_report(g_report, label="gaussian engine:")
        _print_report(f_report, label=f"fock engine (cutoff {config.cutoff}):")
        gap = max(
            abs(getattr(g_report, name) - getattr(f_report, name))
            for name in ("p_tt", "p_t_any", "p_any_t", "p_any_any", "f")
        )
        print(f"largest cross-engine gap: {gap:.3e}")
        if config.out:
            _write_lines(config.out, _report_csv(g_report))
        return _exit_code(g_report)

    state = build_state(config, engine)
    report = _report_for(state, angles, config, engine)
    _print_report(report)
    if config.out:
        _write_lines(config.out, _report_csv(report))
    return _exit_code(report)


def cmd_sweep(config):
    """Sweep the squeezed thermal family and emit the plot CSV."""
    if config.engine not in (None, "gaussian"):
        raise ConfigError("sweep uses the gaussian engine")
    angles = config.angles or _parse_angle_list(DEFAULT_ANGLES)
    sweep = config.sweep
    step = float(sweep["u_step"])
    if step <= 0.0:
        raise ConfigError("u_step must be positive")
    start, stop = float(sweep["u_start"]), float(sweep["u_stop"])
    if stop < start:
        raise ConfigError("u_stop must not be below u_start")
    count = int(round((stop - start) / step)) + 1
    u_values = [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]

    rows = gaussian.sweep_rows(
        u_values, sweep["scenarios"], sweep["kappas"], angles, config.policy
    )
    lines = [",".join(CSV_FIELDS) + "\n"]
    for row in rows:
        cells = [_format(row[name]) for name in CSV_FIELDS[:-1]]
        lines.append(",".join(cells + [str(row["violated"])]) + "\n")
    _write_lines(config.out, lines)
    violated = sum(row["violated"] for row in rows)
    print(f"swept {len(rows)} points; {violated} violated", file=sys.stderr)
    return 0


def cmd_scan(config):
    """Grid-search the four angles for the configured state."""
    engine = _resolve_engine(config)
    if engine == "both":
        raise ConfigError("scan uses one engine at a time")
    if engine == "fock" and config.state["kind"] == "mixture":
        raise ConfigError(
            "scan cannot use the fock engine on a mixture state; "
            "use run --engine fock, or scan with the analytic engine"
        )
    state = build_state(config, engine)
    result = detection.angle_scan(state, grid_density=config.grid, refine=config.refine)
    best = result.angles
    print(
        "best angles: theta1=%.6f theta2=%.6f theta1'=%.6f theta2'=%.6f"
        % (best.theta1, best.theta2, best.theta1_alt, best.theta2_alt)
    )
    print(f"grid f = {result.grid_f:.12f} over {result.grid_density}^4 points")
    if result.refined:
        print(f"refined f = {result.f:.12f}")
    report = _report_for(state, best, config, engine)
    print(f"verdict at best angles: {report.verdict}")
    return 0


def run_validation(
    seed,
    trials,
    cutoff,
    policy=DEFAULT_POLICY,
    golden_tol=1e-10,
    cross_tol=1e-6,
    classical_tol=1e-9,
):
    """Run the self-check suites; returns (ok, printed lines).

    The tolerance arguments exist so tests can prove the checks are live:
    an impossible tolerance must make the suite fail.
    """
    lines = []
    ok = True

    worst_golden = 0.0
    for u in (0.25, 0.5, 1.0):
        state = gaussian.GaussianState(
            np.diag([math.exp(-2.0 * u), math.exp(2.0 * u)])
        )
        gap = abs(gaussian.vacuum_probability(state, (0,)) - 1.0 / math.cosh(u))
        worst_golden = max(worst_golden, gap)
    for kappa in (0.5, 0.8, 1.0):
        state = gaussian.build_squeezed_thermal(
            gaussian.SqueezedThermalSpec(0.0, 0.0, kappa)
        )
        gap = abs(
            gaussian.vacuum_probability(state, (0,)) - 2.0 * kappa / (1.0 + kappa)
        )
        worst_golden = max(worst_golden, gap)
    for u in (0.25, 0.5, 1.0):
        state = gaussian.build_squeezed_thermal(gaussian.SqueezedThermalSpec(u, 0.0, 1.0))
        gap = abs(gaussian.is_squeezed(state)[1] - math.exp(-2.0 * u) / 2.0)
        worst_golden = max(worst_golden, gap)
    golden_ok = worst_golden <= golden_tol
    ok = ok and golden_ok
    lines.append(
        f"golden values: worst gap {worst_golden:.3e} "
        f"(tol {golden_tol:.1e}) -> {'pass' if golden_ok else 'FAIL'}"
    )

    rng = np.random.default_rng(seed)
    worst_cross = 0.0
    for u in (0.1, 0.3):
        for v in (0.1, 0.3):
            spec = gaussian.SqueezedThermalSpec(u, v, 1.0)
            g_state = gaussian.build_squeezed_thermal(spec)
            f_state = gaussian.fock_equivalent_state(spec, cutoff, policy)
            for _ in range(3):
                angles = detection.AngleSettings(*rng.uniform(0.0, math.pi, size=4))
                g_report = detection.ch_functional(g_state, angles, policy)
                f_report = detection.ch_functional(f_state, angles, policy)
                for name in ("p_tt", "p_t_any", "p_any_t", "p_any_any"):
                    worst_cross = max(
                        worst_cross,
                        abs(getattr(g_report, name) - getattr(f_report, name)),
                    )
    cross_ok = worst_cross <= cross_tol
    ok = ok and cross_ok
    lines.append(
        f"cross-engine rates (cutoff {cutoff}): worst gap {worst_cross:.3e} "
        f"(tol {cross_tol:.1e}) -> {'pass' if cross_ok else 'FAIL'}"
    )

    if trials == 0:
        lines.append("classical nonviolation: skipped (trials = 0)")
    else:
        suite = coherent.classical_nonviolation_suite(seed, trials, policy)
        suite_ok = (
            suite.violations == 0
            and suite.worst_f <= classical_tol
            and suite.worst_lower_margin >= -classical_tol
        )
        ok = ok and suite_ok
        lines.append(
            f"classical nonviolation ({suite.trials} trials): "
            f"violations {suite.violations}, worst f {suite.worst_f:.3e}, "
            f"worst lower margin {suite.worst_lower_margin:.3e} "
            f"-> {'pass' if suite_ok else 'FAIL'}"
        )
        if suite.failing_seed is not None:
            lines.append(f"first failing (seed, trial): {suite.failing_seed}")
    return ok, lines


def cmd_validate(config):
    if config.trials == 0:
        print("warning: trials = 0, classical suite will be skipped", file=sys.stderr)
    ok, lines = run_validation(config.seed, config.trials, config.cutoff, config.policy)
    for line in lines:
        print(line)
    print("validation:", "pass" if ok else "FAIL")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError: exit code 2 means "inconclusive"."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="bellsim",
        description="Generalized Clauser-Horne tests on four-mode field states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--engine", choices=_ENGINES)
        p.add_argument("--cutoff", type=int, help="total-photon cutoff (default 16)")
        p.add_argument("--seed", type=int, help="seed for random draws (default 0)")
        p.add_argument("--out", help="output path (default stdout)")

    run_p = sub.add_parser("run", help="evaluate the CH functional at fixed angles")
    add_common(run_p)
    run_p.add_argument("--state", help="state kind or JSON object")
    run_p.add_argument("--angles", help="four angles, e.g. 'pi/8,pi/4,3pi/8,0'")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep the squeezed thermal family to CSV")
    add_common(sweep_p)
    sweep_p.add_argument("--angles", help="four fixed angles for every sweep point")
    sweep_p.add_argument("--u-start", dest="u_start", type=float)
    sweep_p.add_argument("--u-stop", dest="u_stop", type=float)
    sweep_p.add_argument("--u-step", dest="u_step", type=float)
    sweep_p.set_defaults(func=cmd_sweep)

    scan_p = sub.add_parser("scan", help="search all four angles for the best f")
    add_common(scan_p)
    scan_p.add_argument("--state", help="state kind or JSON object")
    scan_p.add_argument("--grid", type=int, help="grid points per angle (default 16)")
    scan_p.add_argument("--refine", action="store_true", help="polish the best grid point")
    scan_p.set_defaults(func=cmd_scan)

    val_p = sub.add_parser("validate", help="run the built-in self checks")
    add_common(val_p)
    val_p.add_argument("--trials", type=int, help="classical suite size (default 200)")
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = ExperimentConfig.load(args)
        return args.func(config)
    except (BellSimError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
