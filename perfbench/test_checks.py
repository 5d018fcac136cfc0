"""Self-test of the benchmark's output checks.

    python3 -m pytest perfbench/test_checks.py

Runs every workload's job list once against the checkout (about a minute
on two cores), asserts that each check passes on the real output, then
feeds each check perturbed copies of that output (a shifted f, a flipped
violated flag, a wrong rate, a wrong exit code, ...) and asserts that the
check fails on every one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import trace_report  # noqa: E402
import workloads  # noqa: E402

SEED = 3


# --- perturbations: each takes an Outcome and returns a changed copy --------

def exit_code(code):
    return lambda o: dataclasses.replace(o, rc=code)


def stdout_number(label, delta, nth=0):
    """Add delta to the nth number printed after ``label``, keeping its format."""
    def apply(o):
        pattern = re.compile(r"(" + re.escape(label) + r"\s*=?\s*)([-+]?[\d.]+(?:e[-+]?\d+)?)")
        matches = list(pattern.finditer(o.stdout))
        assert len(matches) > nth, f"{label!r} not in output"
        match = matches[nth]
        token = match.group(2)
        decimals = len(token.partition(".")[2].partition("e")[0])
        if "e" in token:
            new = f"{float(token) + delta:.{decimals}e}"
        else:
            new = f"{float(token) + delta:.{decimals}f}"
        assert new != token, "perturbation below printed precision"
        text = o.stdout[:match.start(2)] + new + o.stdout[match.end(2):]
        return dataclasses.replace(o, stdout=text)
    return apply


def stdout_replace(old, new):
    def apply(o):
        assert old in o.stdout, f"{old!r} not in output"
        return dataclasses.replace(o, stdout=o.stdout.replace(old, new, 1))
    return apply


def csv_cell(name, column, change):
    """Change one cell of a one-row report CSV."""
    def apply(o):
        head, row = o.files[name].decode().splitlines()
        cells = row.split(",")
        index = head.split(",").index(column)
        cells[index] = change(cells[index])
        data = f"{head}\n{','.join(cells)}\n".encode()
        return dataclasses.replace(o, files=dict(o.files, **{name: data}))
    return apply


def shifted(delta):
    return lambda cell: repr(float(cell) + delta)


def other_verdict(cell):
    return "not violated" if cell == "violated" else "violated"


def sweep_rows(name, change):
    """Rewrite the data rows of a sweep CSV with change(list of cell lists)."""
    def apply(o):
        lines = o.files[name].decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        change(rows)
        data = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
        return dataclasses.replace(o, files=dict(o.files, **{name: data.encode()}))
    return apply


def flip_first_unviolated(rows):
    row = next(r for r in rows if r[5] == "0")
    row[5] = "1"


def flip_first_violated(rows):
    row = next(r for r in rows if r[5] == "1")
    row[5] = "0"


def shift_vacuum_row(rows):
    # within the bounds, so the flag still holds; the vacuum row must read 0
    row = next(r for r in rows if float(r[0]) == 0.0 and float(r[2]) == 1.0)
    row[3], row[4] = "-1e-06", "-2e-06"


def shift_every_f(rows):
    for r in rows:
        r[3] = repr(float(r[3]) - 1e-9)


def mark_unsqueezed_violated(rows):
    # an unsqueezed kappa < 1 row with a broken bound and a consistent flag
    row = next(r for r in rows if float(r[0]) == 0.0 and float(r[2]) < 1.0)
    row[3], row[5] = "0.25", "1"


def drop_last(rows):
    rows.pop()


def refined_below_grid(o):
    grid = float(re.search(r"grid f = (\S+)", o.stdout).group(1))
    return stdout_replace(re.search(r"refined f = \S+", o.stdout).group(0),
                          f"refined f = {grid - 1e-6:.12f}")(o)


SCAN_F = "grid f ="

PERTURBATIONS = {
    "tp_run": [
        csv_cell("tp_run.csv", "p_tt", shifted(1e-6)),
        csv_cell("tp_run.csv", "p_t_any", shifted(1e-9)),
        csv_cell("tp_run.csv", "f", shifted(1e-9)),
        csv_cell("tp_run.csv", "theta2", shifted(1e-6)),
        csv_cell("tp_run.csv", "verdict", other_verdict),
        exit_code(1),
    ],
    "tp_scan": [
        stdout_number(SCAN_F, 1e-6),
        stdout_number("refined f =", -1e-6),
        stdout_replace("verdict at best angles: violated", "verdict at best angles: not violated"),
        stdout_replace("over 16^4", "over 15^4"),
        exit_code(2),
    ],
    "sq_scan_c14": [
        stdout_number(SCAN_F, 1e-4),
        stdout_number(SCAN_F, -1e-4),
        stdout_number("theta1=", 0.3),
        exit_code(1),
    ],
    "both_c16": [
        stdout_number("P(t1,t2)=", 1e-6),
        stdout_number("P(t1,t2)=", 0.05, nth=1),
        stdout_number("f =", 1e-6),
        stdout_number("tail=", 1e-2),
        stdout_number("tail=", 1e-2, nth=1),
        stdout_number("largest cross-engine gap:", 1e-3),
        stdout_replace("fock engine (cutoff 16)", "fock engine (cutoff 12)"),
        exit_code(1),
    ],
    "file_run": [
        csv_cell("file_run.csv", "p_talt_t", shifted(1e-7)),
        csv_cell("file_run.csv", "p_any_any", shifted(-1e-7)),
        csv_cell("file_run.csv", "f", shifted(1e-7)),
    ],
    "file_scan": [stdout_number(SCAN_F, 1e-7), refined_below_grid],
    "sweep_default": [
        sweep_rows("default.csv", flip_first_unviolated),
        sweep_rows("default.csv", flip_first_violated),
        sweep_rows("default.csv", shift_vacuum_row),
        sweep_rows("default.csv", shift_every_f),
        sweep_rows("default.csv", mark_unsqueezed_violated),
        sweep_rows("default.csv", drop_last),
        exit_code(1),
    ],
    "sweep_fine": [
        sweep_rows("fine_a.csv", flip_first_violated),
        sweep_rows("fine_a.csv", shift_every_f),
        sweep_rows("fine_a.csv", drop_last),
    ],
    "sweep_fine_repeat": [
        sweep_rows("fine_b.csv", lambda rows: rows[-1].__setitem__(4, rows[-1][4] + "0")),
        exit_code(1),
    ],
    "scan32_thermal": [
        stdout_number(SCAN_F, -1e-6),
        refined_below_grid,
        stdout_replace("refined f", "polished f"),
    ],
    "scan64_pure": [stdout_number(SCAN_F, 1e-6), stdout_number("theta2=", 0.3), exit_code(1)],
    "scan16_unsqueezed": [stdout_number(SCAN_F, 1e-6), stdout_replace("over 16^4", "over 32^4")],
    "validate": [
        stdout_replace("validation: pass", "validation: FAIL"),
        stdout_replace("-> pass", "-> FAIL"),
        stdout_replace("(1000 trials)", "(100 trials)"),
        exit_code(1),
    ],
    "mixture_scan": [
        stdout_number(SCAN_F, 1e-6),
        stdout_number(SCAN_F, -1e-6),
        stdout_replace("verdict at best angles: ", "verdict at best angles: violated #"),
    ],
    "coherent_scan": [stdout_number(SCAN_F, 1e-6)],
    "vacuum_run": [
        csv_cell("vacuum.csv", "p_tt", shifted(1e-6)),
        csv_cell("vacuum.csv", "verdict", other_verdict),
        exit_code(2),
    ],
    "coherent_run": [
        csv_cell("coherent_run.csv", "p_any_t", shifted(1e-9)),
        csv_cell("coherent_run.csv", "p_talt_talt", shifted(-1e-9)),
        csv_cell("coherent_run.csv", "f", shifted(1e-9)),
        csv_cell("coherent_run.csv", "lower_margin", shifted(1e-6)),
    ],
    "coherent_run_fock": [
        csv_cell("coherent_run_fock.csv", "p_tt", shifted(1e-6)),
        csv_cell("coherent_run_fock.csv", "tail_err", lambda cell: "-1e-3"),
    ],
}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def real_round(request):
    """One round of a workload's jobs against the checkout."""
    os.chdir(run.ROOT)
    env = run.child_env()
    work = run.WORK / f"selftest-{request.param}-{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    try:
        jobs = workloads.build(request.param, SEED, work / "inputs",
                               lambda: reference.load_oracle(run.ROOT))
        _, outcomes = run.run_round(jobs, work / "r0", env)
        yield jobs, outcomes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_checks_pass_on_real_output(real_round):
    jobs, outcomes = real_round
    assert run.check_round(jobs, outcomes) == {}


def test_checks_fail_on_perturbed_output(real_round):
    jobs, outcomes = real_round
    for job in jobs:
        assert job.name in PERTURBATIONS, f"no perturbation for {job.name}"
        for index, perturb in enumerate(PERTURBATIONS[job.name]):
            changed = dict(outcomes, **{job.name: perturb(outcomes[job.name])})
            problem = run.check_round([job], changed).get(job.name, "")
            assert problem.startswith("CheckError"), f"{job.name} perturbation {index}: {problem!r}"


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    emitted = set(trace_report.LAYERS) | {"trace.wall_s", "trace.overhead_s"} | {
        f"import.{group.replace('.', '_')}.s" for group in run.IMPORT_GROUPS
    }
    assert per_layer == emitted
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "slowest_job_s", "cpu_s", "peak_rss_mb"}


def test_every_job_has_perturbations():
    work = run.ROOT / run.WORK / f"selftest-names-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        names = {job.name for name in workloads.WORKLOADS
                 for job in workloads.build(name, SEED, work, None)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert names == set(PERTURBATIONS)
