"""One workload in one fresh process: a closed loop over CLI jobs.

Started by ``run.py``; prints one JSON object as its last stdout line.
A single client calls ``ultranorm.cli.main(argv)`` in-process, one job at
a time, with stdout and stderr captured.  The job list is written to JSON
files first, so the program sees only generated files.  Passes repeat
until ``--seconds`` is used up (at least ``MIN_PASSES``); pass k runs the
workload's fixed job shape with the numbers drawn for (seed, k), so no
config runs twice in the measured passes.  Job times are in reference
seconds (see ``cpu``).  With ``--trace 1`` one more fresh pass then runs
with the tracer installed, and once more without it, to show the tracer
changes no output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "ultranorm-bench"

import checks  # noqa: E402  (sibling modules of this script)
import cpu  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
HARD_STOP_S = 120.0  # start no new pass after this, whatever --seconds says
REPIN_S = 0.5  # re-pick the CPU after about this much measured work
REFERENCE_FILE = BENCH / "reference_digests.json"


def import_cli():
    sys.path.insert(0, str(SRC))
    import ultranorm.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's src/")
    return cli


def write_jobs(jobs: List[workloads.Job], directory: Path) -> List[List[str]]:
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, job in enumerate(jobs):
        argv = [job.command]
        for flag, doc in job.files.items():
            path = directory / f"{i}{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path.relative_to(ROOT))]
        argvs.append(argv + job.extra)
    return argvs


def run_jobs(cli, argvs):
    """Run every job; return (wall, [(seconds, code, out, err)]), times in
    reference seconds (see ``cpu``).  The kernel runs and CPU choice
    between jobs are not part of any job's time."""
    results = []
    since_pin = REPIN_S
    before = 0.0
    for argv in argvs:
        if since_pin >= REPIN_S:
            cpu.move_to_fastest()
            since_pin = 0.0
            before = cpu.kernel_time()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        elapsed = time.perf_counter() - t0
        after = cpu.kernel_time()
        since_pin += elapsed
        scaled = elapsed * cpu.REFERENCE_S * 2 / (before + after)
        before = after
        results.append((scaled, code, out.getvalue(), err.getvalue()))
    return sum(r[0] for r in results), results


def run_pass(cli, workload: str, seed: int, index: int, reference: dict,
             failures: list, tracer=None):
    """Pass ``index``, timed, with ``tracer`` installed if one is given.
    Its outputs are checked after the clock stops: against the recorded
    digests where the reference covers (seed, index), and by the
    invariants always."""
    jobs = workloads.jobs_for(workload, seed, index)
    directory = WORK / f"{workload}-{seed}-{index}"
    argvs = write_jobs(jobs, directory)
    if tracer:
        tracer.install()
    try:
        wall, results = run_jobs(cli, argvs)
    finally:
        if tracer:
            tracer.restore()
    shutil.rmtree(directory)
    digests = None
    if seed == reference["seed"] and index < reference["passes"]:
        digests = reference["workloads"][workload][index].split()
    for i, (job, (_, code, out, err)) in enumerate(zip(jobs, results)):
        bad = checks.check_job(job, code, out, err,
                               digests[i] if digests else None)
        if bad:
            failures.append(f"pass {index} job {i}: {bad}")
    return wall, results


def warm_up(cli, workload: str, seed: int, failures: list) -> int:
    """One job of each subcommand, untimed, from a separate number stream."""
    jobs, seen = [], set()
    for job in workloads.jobs_for(workload, seed, "warm"):
        if job.command not in seen:
            seen.add(job.command)
            jobs.append(job)
    directory = WORK / f"{workload}-{seed}-warm"
    _, results = run_jobs(cli, write_jobs(jobs, directory))
    shutil.rmtree(directory)
    for job, (_, code, out, err) in zip(jobs, results):
        bad = checks.check_job(job, code, out, err, None)
        if bad:
            failures.append(f"warm-up: {bad}")
    return len(jobs)


def sloc(module: str) -> int:
    lines = (SRC / "ultranorm" / f"{module}.py").read_text().splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def traced_pass(cli, workload: str, seed: int, index: int, reference: dict,
                failures: list):
    """Pass ``index``, not run before, under the tracer; then the same
    pass untraced, whose outputs must equal the traced ones byte for
    byte.  Returns (traced wall, tracer, self-check, jobs run)."""
    tracer = layertrace.Tracer()
    wall, traced = run_pass(cli, workload, seed, index, reference, failures,
                            tracer)
    left = layertrace.installed_wrappers()
    if left:
        raise SystemExit(f"tracing wrappers left installed: {left[:5]}")
    _, untraced = run_pass(cli, workload, seed, index, reference, [])
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if (a[1], a[2]) != (b[1], b[2]):
            failures.append(f"traced job {i}: output differs from untraced")
    checked = layertrace.self_check(workload, tracer)
    for name in ("never_called", "predicted_zero_but_called"):
        failures += [f"traced pass: {name} {key}" for key in checked[name]]
    return wall, tracer, checked, len(traced) + len(untraced)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    reference = json.loads(REFERENCE_FILE.read_text())
    cli = import_cli()
    if layertrace.installed_wrappers():
        raise SystemExit("tracing wrappers present before the untimed run")
    failures: List[str] = []
    attempted = warm_up(cli, args.workload, args.seed, failures)

    walls, times, spent = [], [], []
    start = time.perf_counter()
    while True:
        wall, results = run_pass(cli, args.workload, args.seed, len(walls),
                                 reference, failures)
        attempted += len(results)
        walls.append(wall)
        times.append([r[0] for r in results])
        elapsed = time.perf_counter() - start
        spent.append(elapsed - sum(spent))
        if elapsed >= HARD_STOP_S or (len(walls) >= MIN_PASSES and
                                      elapsed + statistics.median(spent) > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Each position of the job list (same subcommand and sizes in every
    # pass, other numbers) is timed by its median over the passes; the
    # metrics describe that list.
    typical = [statistics.median(column) for column in zip(*times)]
    out = {
        "jobs_per_pass": len(times[0]),
        "passes": len(walls),
        "end_to_end": {
            "wall_s": (sum(typical), "s"),
            "job_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "job_p90_ms": (statistics.quantiles(typical, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if args.trace:
        traced_wall, tracer, checked, n = traced_pass(
            cli, args.workload, args.seed, len(walls), reference, failures)
        attempted += n
        layers = layertrace.layer_metrics(tracer)
        layers["trace.overhead_ratio"] = (
            traced_wall / statistics.median(walls), "ratio")
        for mod in layertrace.MODULES:
            layers[f"{mod}.sloc"] = (sloc(mod), "lines")
        out["per_layer"] = layers
        out["self_check"] = checked
    out["attempted"] = attempted
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
