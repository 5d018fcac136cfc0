"""bellsim benchmark: cold CLI jobs, timed from outside, outputs checked.

    python3 perfbench/run.py --workload fock_scan --seed 1 --seconds 35 --trace 0

Run from the root of a bellsim checkout (the script changes to it). One
driver runs the workload's job list one job at a time, a closed loop with a
single client; each job is a fresh ``python -m bellsim.cli`` process with
the checkout's ``src`` first on PYTHONPATH. The job list repeats in whole
rounds until ``--seconds`` would be exceeded (always at least one round).

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics (medians over rounds). With ``--trace 1`` each round
runs the job list twice, plain and then under perfbench/tracer.py, and the
result holds the per-layer metrics. Every job output is checked after the
timed part; see workloads.py. A full record of the run goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import reference  # noqa: E402
import trace_report  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
JOB_TIMEOUT_S = 100.0
WORK = Path("perfbench") / "_work"
RESULTS = Path("perfbench") / "results"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BELLSIM_THREADS", None)  # the program's default pool, as users get it
    return env


def spawn(argv, env, stdout, stderr):
    """Run a child to its end; returns (exit code, wall s, cpu s, peak RSS MB).

    The child's own rusage comes from wait4, so CPU time and peak RSS are
    that process's alone.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, env=env)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_job(job, round_dir, env, spans=None):
    args = [a.replace("{dir}", str(round_dir)) for a in job.args]
    if spans is None:
        argv = [sys.executable, "-m", "bellsim.cli"] + args
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--"] + args
    out_path, err_path = round_dir / f"{job.name}.stdout", round_dir / f"{job.name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        rc, wall, cpu, rss = spawn(argv, env, out, err)
    files = {}
    for name in job.outputs:
        path = round_dir / name
        if path.exists():
            files[name] = path.read_bytes()
    return workloads.Outcome(
        rc=rc,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        files=files,
        wall_s=wall,
        cpu_s=cpu,
        rss_mb=rss,
    )


def run_round(jobs, round_dir, env, traced=False):
    """One pass over the job list; returns (wall s, {job name: Outcome})."""
    round_dir.mkdir(parents=True)
    outcomes = {}
    start = time.perf_counter()
    for job in jobs:
        spans = round_dir / f"{job.name}.spans.json" if traced else None
        outcomes[job.name] = run_job(job, round_dir, env, spans)
    return time.perf_counter() - start, outcomes


def check_round(jobs, outcomes):
    """Check every job; returns {job name: problem} for the ones that failed."""
    problems = {}
    for job in jobs:
        try:
            job.check(outcomes[job.name], outcomes)
        except (outputs.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems[job.name] = f"{type(exc).__name__}: {exc}"
    return problems


def verify_checkout(env):
    """Fail unless a fresh interpreter imports bellsim from this checkout's src."""
    cli = ROOT / "src" / "bellsim" / "cli.py"
    if not cli.is_file():
        raise SystemExit(f"error: {cli} not found; run from a bellsim checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import bellsim.cli; print(bellsim.cli.__file__)"],
        env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=False,
    )
    found = probe.stdout.strip()
    if probe.returncode != 0 or Path(found).resolve() != cli.resolve():
        raise SystemExit(f"error: bellsim imports from {found!r}, not {cli}: {probe.stderr}")


def measure_setup(env):
    """Median wall time of a fresh interpreter importing bellsim.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        _, wall, _, _ = spawn([sys.executable, "-c", "import bellsim.cli"], env,
                              subprocess.DEVNULL, subprocess.DEVNULL)
        times.append(wall)
    return statistics.median(times), times


IMPORT_GROUPS = ("bellsim", "scipy.optimize", "numpy")


def import_times(env):
    """Import time (s) of each of IMPORT_GROUPS, from ``python -X importtime``.

    A group's time is the summed cumulative time of its outermost modules:
    those named like the group (``scipy.optimize`` or ``scipy.optimize.*``)
    that are not imported from inside another module of the group. scipy
    loads ``scipy.optimize`` lazily, so the package itself may print no line
    while its submodules do. Medians over IMPORTTIME_REPEATS interpreters.
    """
    samples = {group: [] for group in IMPORT_GROUPS}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bellsim.cli"],
            env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True,
        )
        entries = []  # (depth, name, cumulative s), children before parents
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$", line)
            if match:
                entries.append((len(match.group(2)), match.group(3), int(match.group(1)) * 1e-6))
        for group in IMPORT_GROUPS:
            def member(name):
                return name == group or name.startswith(group + ".")

            total = 0.0
            for i, (depth, name, cumulative) in enumerate(entries):
                if not member(name):
                    continue
                # the enclosing imports are the later lines of smaller depth
                enclosing, limit = [], depth
                for d, n, _ in entries[i + 1:]:
                    if d < limit:
                        enclosing.append(n)
                        limit = d
                if not any(member(n) for n in enclosing):
                    total += cumulative
            samples[group].append(total)
    return {group: statistics.median(values) for group, values in samples.items()}


def end_to_end(rounds):
    """Medians over untraced rounds of (wall, {job: Outcome}) pairs.

    slowest_job_s is the largest of the per-job median wall times, so one
    slow round of one job does not set it alone.
    """
    walls = [wall for wall, _ in rounds]
    jobs = rounds[0][1]
    per_job = {name: statistics.median(o[name].wall_s for _, o in rounds) for name in jobs}
    return {
        "wall_s": (statistics.median(walls), "s"),
        "slowest_job_s": (max(per_job.values()), "s"),
        "cpu_s": (statistics.median(sum(x.cpu_s for x in o.values()) for _, o in rounds), "s"),
        "peak_rss_mb": (statistics.median(max(x.rss_mb for x in o.values()) for _, o in rounds),
                        "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    env = child_env()
    verify_checkout(env)
    if not (ROOT / "tests" / "oracle.py").is_file():
        raise SystemExit("error: tests/oracle.py, the dense reference, is missing")

    work = WORK / f"{args.workload}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, inputs,
                               lambda: reference.load_oracle(ROOT))
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "jobs": [[j.name] + j.args for j in jobs]}
        rounds = []  # (kind, wall, outcomes, round dir)

        if args.trace:
            record["import_s"] = import_times(env)
        else:
            setup, setup_all = measure_setup(env)
            record["setup_s"] = setup_all

        begin = time.perf_counter()
        longest = 0.0
        while not rounds or time.perf_counter() - begin + longest <= args.seconds:
            index = len(rounds)
            started = time.perf_counter()
            wall, outcomes = run_round(jobs, work / f"r{index}", env)
            rounds.append(("plain", wall, outcomes, work / f"r{index}"))
            if args.trace:
                wall, outcomes = run_round(jobs, work / f"t{index}", env, traced=True)
                rounds.append(("traced", wall, outcomes, work / f"t{index}"))
            longest = max(longest, time.perf_counter() - started)

        attempted, failed, wrong = 0, 0, 0
        for kind, wall, outcomes, _ in rounds:
            problems = check_round(jobs, outcomes)
            attempted += len(jobs)
            failed += len(problems)
            wrong += sum(1 for name in problems if outcomes[name].rc in (0, 2))
            for name, problem in problems.items():
                print(f"FAIL {kind} {name} (exit {outcomes[name].rc}): {problem}", file=sys.stderr)
        record["rounds"] = [
            {"kind": kind, "wall_s": wall,
             "jobs": {n: {"rc": o.rc, "wall_s": o.wall_s, "cpu_s": o.cpu_s, "rss_mb": o.rss_mb}
                      for n, o in outcomes.items()}}
            for kind, wall, outcomes, _ in rounds
        ]

        plain = [(wall, o) for kind, wall, o, _ in rounds if kind == "plain"]
        if args.trace:
            traced = [(wall, d) for kind, wall, _, d in rounds if kind == "traced"]
            layers, spans = trace_report.layer_metrics(
                [[d / f"{job.name}.spans.json" for job in jobs] for _, d in traced])
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
            for name, value in record["import_s"].items():
                metrics[f"import.{name.replace('.', '_')}.s"] = {"value": value, "unit": "s"}
            traced_wall = statistics.median(w for w, _ in traced)
            plain_wall = statistics.median(wall for wall, _ in plain)
            metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
            record["spans"] = spans
        else:
            metrics = {"setup_s": {"value": setup, "unit": "s"}}
            for name, (value, unit) in end_to_end(plain).items():
                metrics[name] = {"value": value, "unit": unit}
        record["metrics"] = metrics

        result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
