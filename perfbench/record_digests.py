"""Record the expected output digest of every (job, ell) the workloads can run.

Usage, from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: job id -> ell (or "-" for jobs without one)
-> sha256 of the job's canonical JSON output (run.output_digest).
"""

import json
import sys
from pathlib import Path

from run import DIGESTS, ELL_COMMANDS, OUT_DIR, WORKLOADS, Runner, Task, admissible_ells


def main() -> int:
    root = Path.cwd()
    work_dir = root / OUT_DIR / "record-digests"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work_dir, expected={})
    digests: dict[str, dict[str, str]] = {}
    for job in {job: None for jobs in WORKLOADS.values() for job in jobs}:
        ells = admissible_ells(job.group) if job.command in ELL_COMMANDS else [None]
        for ell in ells:
            task = Task(job, ell, None)
            run = runner.run(task)
            if run.digest is None:
                print(f"error: {job.id} ell={ell}: {run.status}", file=sys.stderr)
                return 1
            digests.setdefault(job.id, {})[task.digest_key] = run.digest
            print(f"{job.id:<22} ell={task.digest_key:<3} {run.job_s:7.3f} s  {run.digest[:16]}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
