"""ultranorm benchmark: CLI jobs timed end to end, and by layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script

1. byte-compiles ``src/ultranorm`` by importing it once in a child;
2. runs the workload in a fresh child (``worker.py``), a closed
   loop of one client calling ``ultranorm.cli.main(argv)`` job after job;
3. with ``--trace 0``, times ``import ultranorm.cli`` in ``SETUP_PROBES``
   fresh children, half before the workload and half after it (set-up
   time, which every CLI invocation pays), and reports their median in
   reference seconds (see ``cpu``);
4. prints an environment record, then as the last line one JSON object:
   ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
   the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
   ones from a separate traced pass.

Workloads, metrics and their bounds are declared in ``BENCHMARK.json``.
It exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 20
RUN_LIMIT_S = 170.0
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "t = time.perf_counter(); import ultranorm.cli; "
         "print(time.perf_counter() - t)")

sys.path.insert(0, str(BENCH))
import cpu  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ULTRANORM_LOG", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout: float) -> str:
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    return proc.stdout


def git_sha():
    """HEAD of the checkout, or None where git cannot tell."""
    try:
        # the ceiling keeps git from taking the SHA of an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_times(count: int):
    """Import time of ``ultranorm.cli`` in ``count`` fresh children."""
    times = []
    for _ in range(count):
        before = cpu.kernel_time()
        seconds = float(run_child([sys.executable, "-c", PROBE, str(SRC)], 60))
        kernel = (before + cpu.kernel_time()) / 2
        times.append(seconds * cpu.REFERENCE_S / kernel)
    return times


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ultranorm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    start = time.perf_counter()
    if not (SRC / "ultranorm" / "cli.py").is_file():
        print(f"no ultranorm sources under {SRC}", file=sys.stderr)
        return 1
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup_times(1)  # byte-compiles the sources; not counted
        setups = setup_times(probes)
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        out = run_child([sys.executable, str(BENCH / "worker.py"),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], remaining)
        result = json.loads(out.strip().splitlines()[-1])
        setups += setup_times(probes)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failures = result["attempted"], result["failures"]
    if args.trace:
        metrics = result["per_layer"]
        metrics["error_rate"] = (len(failures) / attempted, "ratio")
        metrics["jobs.per_pass"] = (result["jobs_per_pass"], "count")
        missing = sorted(k for k, (v, _) in metrics.items() if v is None)
    else:
        metrics = result["end_to_end"]
        metrics["setup_s"] = (statistics.median(setups), "s")
        missing = []
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "jobs_per_pass": result["jobs_per_pass"], "passes": result["passes"],
        "failures": failures[:20], "missing_metrics": missing,
        "self_check": result.get("self_check"),
    }
    print(json.dumps({"environment": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
