"""Write ``reference_digests.json``: per-job output digests on the reference
seed, which later runs compare byte for byte.

    python3 bench/record_digests.py

Run it only on a commit whose outputs are known good; it refuses to record
when any job fails or breaks an invariant.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import worker
import workloads

SEED = 1
PASSES = 6


def main() -> int:
    cli = worker.import_cli()
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = []
        for content in range(PASSES):
            jobs = workloads.jobs_for(name, SEED, content)
            directory = worker.WORK / f"record-{name}-{content}"
            _, results = worker.run_jobs(cli, worker.write_jobs(jobs, directory))
            shutil.rmtree(directory)
            for i, (job, (_, code, out, err)) in enumerate(zip(jobs, results)):
                bad = checks.check_job(job, code, out, err, None)
                if bad:
                    print(f"{name} pass {content} job {i}: {bad}", file=sys.stderr)
                    return 1
            table[name].append(" ".join(checks.digest(r[2]) for r in results))
            print(f"{name} pass {content}: {len(results)} jobs", file=sys.stderr)
    doc = {"seed": SEED, "passes": PASSES, "workloads": table}
    worker.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
