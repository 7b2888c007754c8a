"""One benchmark job in a fresh interpreter: import the CLI, time one call, report.

Usage (started by run.py, never by hand):

    python3 perfbench/worker.py SPAWN_NS RESULT_PATH SPANS_PATH JOB_ID -- CLI_ARGS...

SPAWN_NS is ``time.monotonic_ns()`` read by the parent just before it started
this process, so ``setup_s`` covers interpreter start-up and the import of
``kulocal.cli``.  SPANS_PATH is empty for an untraced job.  The result is a
JSON object written to RESULT_PATH: ``setup_s``, ``job_s``, ``rc`` and, for a
traced job, ``trace`` (see tracer.Tracer.summary).
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    spawn_ns, result_path, spans_path, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: worker.py SPAWN_NS RESULT_PATH SPANS_PATH JOB_ID -- CLI_ARGS...")
    from kulocal import cli

    ready_ns = time.monotonic_ns()
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = cli.run(cli_args)
    job_s = time.perf_counter() - start
    result = {"setup_s": (ready_ns - int(spawn_ns)) / 1e9, "job_s": job_s, "rc": rc}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path, job_id)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
