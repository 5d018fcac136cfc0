"""The three workloads: seeded job lists and the output check of every job.

A job is one cold ``python -m bellsim.cli`` process. ``build(name, seed,
inputs)`` draws every input from ``numpy.random.default_rng(seed)`` in the
order written below, writes state and config files into ``inputs``, and
returns the job list. The program sees only the argv and those files.

Each job's check raises CheckError on the first thing that is wrong. The
checks compare against perfbench/reference.py, never against stored output,
with these tolerances:

* EXACT_TOL (1e-12) where the CLI wrote 17 significant digits and the
  reference is a closed form or a 4x4 determinant;
* PRINTED_TOL (1e-9) where the CLI printed 12 decimals, and for the dense
  oracle, as the program's own verdict_tol;
* a Fock engine truncated at a total cutoff loses at most its tail from
  each rate (passive optics conserve photon number), so a rate may be off
  by the tail and f, a sum of six rates, by three tails;
* ANGLE_F_TOL (1e-4) for f re-evaluated at best angles printed with six
  decimals: each angle is off by up to 5e-7, and f moves by at most about
  1e-4 under that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

import outputs
import reference as ref
from outputs import CheckError

EXACT_TOL = 1e-12
PRINTED_TOL = 1e-9
ANGLE_F_TOL = 1e-4

PINNED = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, 0.0)
DEFAULT_KAPPAS = (1.0, 0.9, 0.8)
SCENARIOS = ("equal", "zero", "opposite")


@dataclass
class Outcome:
    """What one job did in one round."""

    rc: int
    stdout: str
    stderr: str
    files: dict
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Job:
    """One CLI invocation; ``{dir}`` in an argument is the round directory."""

    name: str
    args: list
    check: object  # check(outcome, round) -> None; raises CheckError
    outputs: tuple = field(default=())


def expect(condition, message):
    if not condition:
        raise CheckError(message)


def close(value, want, tol, what):
    expect(abs(value - want) <= tol, f"{what}: {value!r}, reference {want!r} (tol {tol:.1e})")


def expect_rc(outcome, allowed):
    expect(outcome.rc in allowed, f"exit code {outcome.rc}, expected one of {sorted(allowed)}")


def angle_arg(angles):
    return ",".join(repr(float(a)) for a in angles)


def state_arg(spec):
    return json.dumps(spec, separators=(",", ":"))


def squeezed(u, v, kappa):
    return {"kind": "squeezed_thermal", "u": u, "v": v, "kappa": kappa}


def signed_pair(rng, low, high):
    """(u, v) with magnitudes in [low, high] and independent signs."""
    mags = rng.uniform(low, high, size=2)
    signs = rng.choice((-1.0, 1.0), size=2)
    return float(mags[0] * signs[0]), float(mags[1] * signs[1])


def complex_pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


# --- shared checks ----------------------------------------------------------

def check_report_csv(outcome, name, rate, angles, tol, tail=None):
    """A ``run --out`` report against rate(t1, t2) at the given angles.

    ``tail`` None means the engine reports its own tail in the CSV and the
    reference is the untruncated state.
    """
    report = outputs.report_csv(outcome.files[name])
    for key, want in zip(("theta1", "theta2", "theta1_alt", "theta2_alt"), angles):
        close(report[key], want % math.pi, EXACT_TOL, key)
    tail = report["tail_err"] if tail is None else tail
    expect(tail >= 0.0, f"negative tail {tail!r}")
    want = ref.ch_rates(rate, angles)
    for key in ref.RATE_NAMES:
        close(report[key], want[key], tol + tail, key)
    f_ref = ref.ch_value(want)
    close(report["f"], f_ref, 3 * (tol + tail), "f")
    close(report["lower_margin"], report["f"] + report["p_any_any"], EXACT_TOL, "lower margin")
    close(report["upper_margin"], -report["f"], EXACT_TOL, "upper margin")
    verdicts = ref.allowed_verdicts(f_ref, want["p_any_any"], tail, 3 * (tol + tail))
    expect(report["verdict"] in verdicts, f"verdict {report['verdict']!r}, expected {verdicts}")
    expect(f"verdict: {report['verdict']}" in outcome.stdout, "printed verdict differs from CSV")
    expect_rc(outcome, {2} if report["verdict"] == "inconclusive" else {0})
    return report


def check_scan(outcome, grid, grid_f, rate, tol, refine, tail=0.0, verdicts=None):
    """A ``scan`` output against the reference grid maximum and rate(t1, t2).

    The verdict must be one the reference allows at the printed best angles
    and, if given, one of ``verdicts``.
    """
    expect_rc(outcome, {0})
    result = outputs.scan(outcome.stdout)
    expect(result["grid"] == grid, f"scanned a {result['grid']}-point grid, expected {grid}")
    close(result["grid_f"], grid_f, tol, "grid f")
    best = result["grid_f"]
    if refine:
        expect(result["refined_f"] is not None, "no refined f printed")
        expect(result["refined_f"] >= result["grid_f"] - EXACT_TOL,
               f"refined f {result['refined_f']!r} below grid f {result['grid_f']!r}")
        best = result["refined_f"]
    else:
        expect(result["refined_f"] is None, "refined f printed without --refine")
    f_ref = ref.ch_value(ref.ch_rates(rate, result["angles"]))
    close(f_ref, best, ANGLE_F_TOL + tol, "f at the printed best angles")
    allowed = ref.allowed_verdicts(f_ref, rate(None, None), tail, ANGLE_F_TOL + tol)
    if verdicts is not None:
        allowed &= verdicts
    expect(result["verdict"] in allowed, f"verdict {result['verdict']!r}, expected {allowed}")
    return result


# --- fock_scan --------------------------------------------------------------

def fock_scan(rng, inputs, oracle):
    """Fock-engine jobs: two-photon, squeezed replicas, a number-basis file."""
    jobs = []

    tp_angles = rng.uniform(0.0, math.pi, size=4)

    def tp_run(outcome, _round):
        check_report_csv(outcome, "tp_run.csv", ref.two_photon_rate, tp_angles, EXACT_TOL)

    jobs.append(Job("tp_run", ["run", "--state", "two_photon", "--angles", angle_arg(tp_angles),
                               "--out", "{dir}/tp_run.csv"], tp_run, ("tp_run.csv",)))

    def tp_scan(outcome, _round):
        check_scan(outcome, 16, ref.TWO_PHOTON_MAX_F, ref.two_photon_rate, PRINTED_TOL,
                   refine=True, verdicts={"violated"})
        close(outputs.scan(outcome.stdout)["refined_f"], ref.TWO_PHOTON_MAX_F, PRINTED_TOL,
              "refined f")

    jobs.append(Job("tp_scan", ["scan", "--state", "two_photon", "--grid", "16", "--refine"],
                    tp_scan))

    u, v = signed_pair(rng, 0.2, 0.5)
    jobs.append(_fock_squeezed_scan("sq_scan_c14", u, v, 14))
    u, v = signed_pair(rng, 0.2, 0.5)
    jobs.append(_both_run("both_c16", u, v, 16, rng.uniform(0.0, math.pi, size=4)))

    # a random pure state on every occupation with at most three photons
    occupations = [o for o in np.ndindex(4, 4, 4, 4) if sum(o) <= 3]
    amps = rng.normal(size=len(occupations)) + 1j * rng.normal(size=len(occupations))
    path = inputs / "file_state.json"
    path.write_text(json.dumps({
        "mode_count": 4,
        "cutoff": 3,
        "amplitudes": [
            {"occupation": list(o), "re": float(a.real), "im": float(a.imag)}
            for o, a in zip(occupations, amps)
        ],
    }), encoding="utf-8")
    file_spec = state_arg({"kind": "file", "path": str(path)})
    file_angles = rng.uniform(0.0, math.pi, size=4)

    @cache
    def dense():
        return ref.DenseFockState(oracle(), dict(zip(occupations, amps)), cap=3)

    @cache
    def dense_grid_max():
        return ref.grid_max(*ref.grid_tables(dense().rate, ref.scan_grid(16)))

    def file_run(outcome, _round):
        check_report_csv(outcome, "file_run.csv", dense().rate, file_angles, PRINTED_TOL, tail=0.0)

    def file_scan(outcome, _round):
        check_scan(outcome, 16, dense_grid_max(), dense().rate, PRINTED_TOL, refine=True)

    jobs.append(Job("file_run", ["run", "--state", file_spec, "--angles", angle_arg(file_angles),
                                 "--out", "{dir}/file_run.csv"], file_run, ("file_run.csv",)))
    jobs.append(Job("file_scan", ["scan", "--state", file_spec, "--refine"], file_scan))
    return jobs


def _fock_squeezed_scan(name, u, v, cutoff):
    model = ref.SqueezedThermal(u, v, 1.0)

    @cache
    def grid_f():
        return ref.grid_max(*ref.grid_tables(model.rate, ref.scan_grid(16)))

    def check(outcome, _round):
        tail = ref.squeezed_fock_tail(u, v, cutoff)
        check_scan(outcome, 16, grid_f(), model.rate, PRINTED_TOL + 3 * tail, refine=False,
                   tail=tail)

    return Job(name, ["scan", "--state", state_arg(squeezed(u, v, 1.0)), "--engine", "fock",
                      "--cutoff", str(cutoff)], check)


def _both_run(name, u, v, cutoff, angles):
    model = ref.SqueezedThermal(u, v, 1.0)

    def check(outcome, _round):
        blocks = outputs.reports(outcome.stdout)
        expect(len(blocks) == 2, f"{len(blocks)} reports printed, expected gaussian and fock")
        g_rep, f_rep = blocks
        expect(f"fock engine (cutoff {cutoff})" in outcome.stdout, "fock report label missing")
        want = ref.ch_rates(model.rate, angles)
        for key in ref.RATE_NAMES:
            close(g_rep[key], want[key], PRINTED_TOL, f"gaussian {key}")
        close(g_rep["f"], ref.ch_value(want), PRINTED_TOL, "gaussian f")
        close(g_rep["tail"], 0.0, 0.0, "gaussian tail")
        tail = f_rep["tail"] + f_rep["tail_rounding"]
        close(f_rep["tail"], ref.squeezed_fock_tail(u, v, cutoff), f_rep["tail_rounding"],
              "fock tail")
        gaps = {key: abs(g_rep[key] - f_rep[key])
                for key in ("p_tt", "p_t_any", "p_any_t", "p_any_any", "f")}
        for key, gap in gaps.items():
            bound = (3 if key == "f" else 1) * tail + PRINTED_TOL
            expect(gap <= bound, f"cross-engine {key} gap {gap:.3e} exceeds {bound:.3e}")
        close(outputs.number(outcome.stdout, "largest cross-engine gap"), max(gaps.values()),
              2e-12 + 5e-4 * max(gaps.values()), "printed cross-engine gap")
        verdicts = ref.allowed_verdicts(ref.ch_value(want), want["p_any_any"], 0.0, PRINTED_TOL)
        expect(g_rep["verdict"] in verdicts, f"gaussian verdict {g_rep['verdict']!r}")
        expect_rc(outcome, {2} if g_rep["verdict"] == "inconclusive" else {0})

    return Job(name, ["run", "--engine", "both", "--cutoff", str(cutoff),
                      "--state", state_arg(squeezed(u, v, 1.0)), "--angles", angle_arg(angles)],
               check)


# --- gaussian_sweep ---------------------------------------------------------

def _sweep_points(start, stop, step, scenarios, kappas):
    """(u, v, kappa) in the documented order: kappa, then scenario, then u."""
    count = math.floor((stop - start) / step + 1e-9) + 1
    v_of = {"equal": lambda u: u, "zero": lambda u: 0.0, "opposite": lambda u: -u}
    return [(start + i * step, v_of[s](start + i * step), k)
            for k in kappas for s in scenarios for i in range(count)]


def check_sweep(data, points, sample):
    """A sweep CSV: row order, flags, the paper's theorem, reference values."""
    rows = outputs.sweep_csv(data)
    expect(len(rows) == len(points), f"{len(rows)} rows, expected {len(points)}")
    for row, (u, v, kappa) in zip(rows, points):
        close(row[0], u, EXACT_TOL, "u")
        close(row[1], v, EXACT_TOL, "v")
        close(row[2], kappa, EXACT_TOL, "kappa")
    violated = 0
    for u, v, kappa, f, neg_p_both, flag in rows:
        expect(flag == (0 if neg_p_both <= f <= 0.0 else 1),
               f"violated flag {flag} disagrees with its row at u={u} v={v} kappa={kappa}")
        if kappa == 1.0 and u == 0.0:
            close(f, 0.0, EXACT_TOL, "f of the vacuum row")
            close(neg_p_both, 0.0, EXACT_TOL, "neg_p_both of the vacuum row")
        if flag:
            violated += 1
            expect(math.exp(-2.0 * max(abs(u), abs(v))) / kappa < 1.0,
                   f"unsqueezed row u={u} v={v} kappa={kappa} is flagged violated")
    expect(violated > 0, "no row is violated")
    for index in sample:
        u, v, kappa, f, neg_p_both, _flag = rows[index]
        want = ref.ch_rates(ref.SqueezedThermal(u, v, kappa).rate, PINNED)
        close(f, ref.ch_value(want), EXACT_TOL, f"f at row {index}")
        close(neg_p_both, -want["p_any_any"], EXACT_TOL, f"neg_p_both at row {index}")
    return rows


def _sweep_row(rows, u, v, kappa):
    for row in rows:
        if abs(row[0] - u) <= EXACT_TOL and abs(row[1] - v) <= EXACT_TOL and row[2] == kappa:
            return row
    raise CheckError(f"default sweep has no row u={u} v={v} kappa={kappa}")


def gaussian_sweep(rng, inputs, _oracle):
    """Covariance-engine jobs: sweeps and squeezed thermal scans."""
    jobs = []
    default_points = _sweep_points(0.0, 1.2, 0.02, SCENARIOS, DEFAULT_KAPPAS)
    default_sample = sorted(rng.choice(len(default_points), size=24, replace=False).tolist())

    def sweep_default(outcome, _round):
        expect_rc(outcome, {0})
        check_sweep(outcome.files["default.csv"], default_points, default_sample)

    jobs.append(Job("sweep_default", ["sweep", "--out", "{dir}/default.csv"], sweep_default,
                    ("default.csv",)))

    start = 0.01 * int(rng.integers(0, 90))
    kappas = [1.0, round(float(rng.uniform(0.85, 0.98)), 3), round(float(rng.uniform(0.7, 0.85)), 3)]
    fine = {"u_start": start, "u_stop": start + 0.305, "u_step": 0.01,
            "scenarios": list(SCENARIOS), "kappas": kappas}
    config = inputs / "fine_sweep.json"
    config.write_text(json.dumps({"sweep": fine}), encoding="utf-8")
    fine_points = _sweep_points(start, start + 0.305, 0.01, SCENARIOS, kappas)
    fine_sample = sorted(rng.choice(len(fine_points), size=24, replace=False).tolist())

    def sweep_fine(outcome, _round):
        expect_rc(outcome, {0})
        check_sweep(outcome.files["fine_a.csv"], fine_points, fine_sample)

    def sweep_fine_repeat(outcome, round_):
        expect_rc(outcome, {0})
        check_sweep(outcome.files["fine_b.csv"], fine_points, fine_sample)
        expect(outcome.files["fine_b.csv"] == round_["sweep_fine"].files["fine_a.csv"],
               "two identical sweeps gave different bytes")

    for name, out, check in (("sweep_fine", "fine_a.csv", sweep_fine),
                             ("sweep_fine_repeat", "fine_b.csv", sweep_fine_repeat)):
        jobs.append(Job(name, ["sweep", "--config", str(config), "--out", "{dir}/" + out],
                        check, (out,)))

    for name, kappas_from, grid, refine in (
        ("scan32_thermal", (0.9, 0.8), 32, True),
        ("scan64_pure", (1.0,), 64, False),
    ):
        # a point of the default sweep, so the scan can be held against it
        u = 0.0 + int(rng.integers(10, 51)) * 0.02
        scenario = SCENARIOS[int(rng.integers(0, 3))]
        v = {"equal": u, "zero": 0.0, "opposite": -u}[scenario]
        kappa = kappas_from[int(rng.integers(0, len(kappas_from)))]
        jobs.append(_gaussian_scan(name, u, v, kappa, grid, refine))

    kappa = round(float(rng.uniform(0.5, 0.95)), 3)
    jobs.append(_gaussian_scan("scan16_unsqueezed", 0.0, 0.0, kappa, 16, False))
    return jobs


def _gaussian_scan(name, u, v, kappa, grid, refine):
    model = ref.SqueezedThermal(u, v, kappa)

    @cache
    def grid_f():
        return ref.grid_max(*ref.grid_tables(model.rate, ref.scan_grid(grid)))

    def check(outcome, round_):
        result = check_scan(outcome, grid, grid_f(), model.rate, PRINTED_TOL, refine)
        if u == 0.0 and v == 0.0:
            expect(result["grid_f"] <= PRINTED_TOL, f"unsqueezed scan has grid f {result['grid_f']}")
        else:
            rows = outputs.sweep_csv(round_["sweep_default"].files["default.csv"])
            sweep_f = _sweep_row(rows, u, v, kappa)[3]
            # the pinned angles lie on every grid whose density is a multiple of 8
            expect(result["grid_f"] >= sweep_f - PRINTED_TOL,
                   f"grid f {result['grid_f']} below the sweep's f {sweep_f} at the pinned angles")

    args = ["scan", "--state", state_arg(squeezed(u, v, kappa)), "--grid", str(grid)]
    return Job(name, args + (["--refine"] if refine else []), check)


# --- classical_validate -----------------------------------------------------

def classical_validate(rng, inputs, _oracle):
    """Many short jobs: validate, classical mixture scans, coherent runs."""
    jobs = []
    validate_seed = int(rng.integers(0, 1_000_000))

    def validate(outcome, _round):
        expect_rc(outcome, {0})
        lines = outcome.stdout.splitlines()
        verdict_lines = [line for line in lines if "->" in line]
        expect(len(verdict_lines) == 3, f"{len(verdict_lines)} suite lines, expected 3")
        for line in verdict_lines:
            expect(line.endswith("-> pass"), f"suite failed: {line!r}")
        expect(any("(1000 trials): violations 0," in line for line in verdict_lines),
               "classical suite did not run 1000 trials without a violation")
        expect(lines[-1] == "validation: pass", "validation did not pass")

    jobs.append(Job("validate", ["validate", "--trials", "1000", "--seed", str(validate_seed)],
                    validate))

    def amplitudes(count, scale):
        return rng.uniform(-scale, scale, size=(count, 4)) + 1j * rng.uniform(
            -scale, scale, size=(count, 4))

    weights = rng.dirichlet(np.ones(4))
    weights = weights / weights.sum()
    comps = amplitudes(4, 1.5)
    spec = {"kind": "mixture", "weights": [float(w) for w in weights],
            "components": [complex_pairs(z) for z in comps]}
    jobs.append(_mixture_scan("mixture_scan", spec, weights, comps))

    z = amplitudes(1, 1.5)[0]
    jobs.append(_mixture_scan("coherent_scan", {"kind": "coherent", "z": complex_pairs(z)},
                              np.ones(1), z.reshape(1, 4)))

    vacuum_angles = rng.uniform(0.0, math.pi, size=4)

    def vacuum(outcome, _round):
        report = check_report_csv(outcome, "vacuum.csv", lambda a, b: 0.0, vacuum_angles,
                                  EXACT_TOL)
        expect(report["verdict"] == "not violated", "vacuum is not 'not violated'")

    jobs.append(Job("vacuum_run", ["run", "--state", "vacuum", "--angles",
                                   angle_arg(vacuum_angles), "--out", "{dir}/vacuum.csv"],
                    vacuum, ("vacuum.csv",)))

    jobs.append(_coherent_run("coherent_run", amplitudes(1, 1.5)[0],
                              rng.uniform(0.0, math.pi, size=4), engine=None))
    # a coherent state on the Fock engine, |z|^2 = 1.2 so cutoff 16 holds it
    z = amplitudes(1, 1.0)[0]
    z = z * math.sqrt(1.2) / np.linalg.norm(z)
    jobs.append(_coherent_run("coherent_run_fock", z, rng.uniform(0.0, math.pi, size=4),
                              engine="fock"))
    return jobs


def _mixture_scan(name, spec, weights, comps):
    def rate(t1, t2):
        return ref.mixture_rate(weights, comps, t1, t2)

    @cache
    def grid_f():
        return ref.grid_max(*ref.grid_tables(rate, ref.scan_grid(16)))

    def check(outcome, _round):
        # a mixture that saturates the bound prints "inconclusive" today
        result = check_scan(outcome, 16, grid_f(), rate, PRINTED_TOL, refine=False,
                            verdicts={"not violated", "inconclusive"})
        expect(result["grid_f"] <= PRINTED_TOL, f"classical state has grid f {result['grid_f']}")

    return Job(name, ["scan", "--state", state_arg(spec)], check)


def _coherent_run(name, z, angles, engine):
    spec = {"kind": "coherent", "z": complex_pairs(z)}
    out = f"{name}.csv"

    def check(outcome, _round):
        tol = EXACT_TOL if engine is None else PRINTED_TOL
        report = check_report_csv(outcome, out, lambda a, b: ref.coherent_rate(z, a, b),
                                  angles, tol)
        expect(report["verdict"] != "violated", "a coherent state is reported violated")

    args = ["run", "--state", state_arg(spec), "--angles", angle_arg(angles),
            "--out", "{dir}/" + out]
    if engine:
        args += ["--engine", engine, "--cutoff", "16"]
    return Job(name, args, check, (out,))


WORKLOADS = {
    "fock_scan": fock_scan,
    "gaussian_sweep": gaussian_sweep,
    "classical_validate": classical_validate,
}


def build(name, seed, inputs, oracle):
    """The job list of one workload for one seed; ``oracle()`` loads tests/oracle.py."""
    return WORKLOADS[name](np.random.default_rng(seed), inputs, oracle)
