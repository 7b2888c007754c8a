"""kulocal benchmark: fixed CLI job lists run as a closed loop of fresh workers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cyclic|lattice|verify --seed N --seconds S --trace 0|1

One driver process runs one worker at a time (no two jobs at once); each worker
is a fresh interpreter that imports ``kulocal.cli`` and times one call to
``kulocal.cli.run([..., "--format", "json", "--output", PATH])`` (worker.py).
The workload's job list is cycled until ``--seconds`` have passed and every job
has run at least once.  Every output is checked against the sha256 recorded in
digests.json for its (job, ell); a job fails when it exits non-zero, its digest
differs, or it runs over BUDGET_S (then it is killed and BUDGET_S counts as its
time).

The seed picks each job's ``--ell`` among the first three admissible values
(coprime to |G|, a primitive root mod exp(G)); seed 0 keeps the CLI defaults.
A non-zero seed is also verify-all's ``--test-seed``.

Job and set-up times are scaled by the host speed that a probe thread of the
driver measured while the worker ran (probe.py), so they read as seconds on a
host of fixed speed: the host's own speed drifts from minute to minute.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then one traced pass (tracer.py) and prints the per-layer
metrics.  The last line of stdout is the JSON result.  Work files go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from probe import SpeedProbe
from tracer import LAYERS, WRAP_POINTS, metric_name

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
OUT_DIR = ".perfbench_out"

BUDGET_S = 30.0  # per job; every job in the lists finishes in under 6 s
RUN_LIMIT_S = 165.0  # no job starts that could end later than this into the run

ELL_COMMANDS = ("pi0", "pi1", "kernel", "bott-verify")
# The one nondeterministic field of any job output (verify-all's own timing).
VERIFY_ALL_TIMING = "elapsed_seconds_time_hundredths"


@dataclass(frozen=True)
class Job:
    command: str
    group: str | None = None

    @property
    def id(self) -> str:
        return f"{self.command} {self.group}" if self.group else self.command


def _jobs(commands: tuple[str, ...], groups: tuple[str, ...]) -> list[Job]:
    return [Job(c, g) for g in groups for c in commands]


# Largest groups first: the loop repeats from the top, so the jobs that weigh
# most in wall_s get the most samples.  bott-verify C243 is left out: it runs
# for about 186 s, far past BUDGET_S, so it could only ever fail (README.md).
WORKLOADS: dict[str, list[Job]] = {
    "cyclic": _jobs(("pi0", "pi1", "kernel"), ("C243",))
    + _jobs(("pi0", "pi1", "kernel", "bott-verify"), ("C81", "C27")),
    "lattice": _jobs(("pi0", "pi1", "kernel", "idempotents"), ("C3xC3xC9",))
    + _jobs(("pi1", "kernel"), ("C5xC5xC5",))
    + _jobs(
        ("pi0", "pi1", "kernel", "idempotents"),
        ("C5xC25", "C9xC9", "C3xC27", "C3xC3xC3"),
    ),
    "verify": [Job("verify-all"), Job("norms")],
}

SUBCOMMANDS = ("pi0", "pi1", "kernel", "bott-verify", "idempotents", "norms", "verify-all")


# ---------------------------------------------------------------------------
# inputs


def admissible_ells(spec: str, count: int = 3) -> list[int]:
    """The first ``count`` ell coprime to |G| that are primitive roots mod exp(G)."""
    factors = [int(part[1:]) for part in spec.split("x")]  # "C3xC9" -> [3, 9]
    order = math.prod(factors)
    exponent = math.lcm(*factors)
    phi = sum(math.gcd(a, exponent) == 1 for a in range(1, exponent))
    found = []
    ell = 2
    while len(found) < count:
        primitive = len({pow(ell, k, exponent) for k in range(phi)}) == phi
        if primitive and math.gcd(ell, order) == 1:
            found.append(ell)
        ell += 1
    return found


@dataclass(frozen=True)
class Task:
    """A job with the inputs one seed chose for it."""

    job: Job
    ell: int | None  # None: the CLI default, which is the first admissible ell
    test_seed: int | None

    @property
    def digest_key(self) -> str:
        if self.job.command in ELL_COMMANDS:
            return str(self.ell or admissible_ells(self.job.group)[0])
        return "-"

    def cli_args(self, output: Path) -> list[str]:
        args = [self.job.command]
        if self.job.group:
            args += ["--group", self.job.group]
        if self.ell is not None:
            args += ["--ell", str(self.ell)]
        if self.job.command == "verify-all":
            args += ["--max-order", "27"]
            if self.test_seed is not None:
                args += ["--test-seed", str(self.test_seed)]
        return args + ["--format", "json", "--output", str(output)]


def make_tasks(workload: str, seed: int) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    for job in WORKLOADS[workload]:
        ell = None
        if seed and job.command in ELL_COMMANDS:
            ell = rng.choice(admissible_ells(job.group))
        tasks.append(Task(job, ell, seed or None))
    return tasks


# ---------------------------------------------------------------------------
# one job in a fresh worker


def output_digest(job: Job, raw: bytes) -> str:
    """sha256 of the canonical JSON; verify-all must pass and loses its timing."""
    payload = json.loads(raw)
    if job.command == "verify-all":
        if payload.get("pass") is not True:
            raise ValueError("verify-all did not pass")
        payload.pop(VERIFY_ALL_TIMING)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class JobRun:
    task: Task
    job_s: float
    setup_s: float | None = None
    speed: float = 1.0  # probe.SpeedProbe.speed over the worker's lifetime
    status: str = "ok"  # ok | exit <rc> | wrong output | over budget | not run
    digest: str | None = None
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def norm_job_s(self) -> float:
        return self.job_s * self.speed


class Runner:
    """Runs tasks one at a time in fresh workers under the per-job budget."""

    def __init__(self, root: Path, work_dir: Path, expected: dict, budget_s: float = BUDGET_S,
                 probe: SpeedProbe | None = None):
        self.root = root
        self.probe = probe
        self.work_dir = work_dir
        self.expected = expected
        self.budget_s = budget_s
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.pop("PYTHONOPTIMIZE", None)

    def run(self, task: Task, spans_path: Path | None = None) -> JobRun:
        slug = task.job.id.replace(" ", "_")
        output = self.work_dir / f"{slug}.out.json"
        result_path = self.work_dir / f"{slug}.result.json"
        for path in (output, result_path):
            path.unlink(missing_ok=True)
        with open(self.work_dir / f"{slug}.stderr", "wb") as stderr:
            spawned = time.monotonic()
            argv = [sys.executable, str(WORKER), str(time.monotonic_ns()), str(result_path),
                    str(spans_path or ""), task.job.id, "--", *task.cli_args(output)]
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr)
            try:
                rc = proc.wait(timeout=self.budget_s)
            except subprocess.TimeoutExpired:
                return JobRun(task, self.budget_s, status="over budget")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0 or not result_path.exists():
            return JobRun(task, self.budget_s, status=f"exit {rc}")
        result = json.loads(result_path.read_text())
        speed = self.probe.speed(spawned, time.monotonic()) if self.probe else 1.0
        run = JobRun(task, result["job_s"], result["setup_s"], speed, trace=result.get("trace"))
        if result["rc"] != 0:
            run.status = f"exit {result['rc']}"
            return run
        try:
            run.digest = output_digest(task.job, output.read_bytes())
        except (OSError, ValueError, KeyError):
            run.status = "wrong output"
            return run
        if run.digest != self.expected.get(task.job.id, {}).get(task.digest_key):
            run.status = "wrong output"
        return run


# ---------------------------------------------------------------------------
# the closed loop


def closed_loop(runner: Runner, tasks: list[Task], seconds: float, run_start: float,
                traced_pass: bool = False, spans_dir: Path | None = None) -> list[JobRun]:
    """Cycle through ``tasks`` until ``seconds`` have passed and each ran once.

    A traced pass runs each task exactly once.  No job starts that could end
    past RUN_LIMIT_S into the run; tasks of the first pass left unrun then
    count as failed at the budget.
    """
    start = time.monotonic()
    runs: list[JobRun] = []
    i = 0
    while i < len(tasks) or (not traced_pass and time.monotonic() - start < seconds):
        task = tasks[i % len(tasks)]
        if time.monotonic() - run_start + runner.budget_s > RUN_LIMIT_S:
            runs += [JobRun(t, runner.budget_s, status="not run") for t in tasks[i:]]
            break
        spans = spans_dir / f"{i:02d}-{task.job.id.replace(' ', '_')}.tsv" if spans_dir else None
        run = runner.run(task, spans)
        runs.append(run)
        print(f"  {'traced ' if traced_pass else ''}{task.job.id:<22} ell={task.digest_key:<3} "
              f"{run.job_s:8.3f} s  speed {run.speed:.3f}  {run.status}", flush=True)
        i += 1
    return runs


def job_medians(runs: list[JobRun], normalised: bool = True) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for run in runs:
        samples.setdefault(run.task.job.id, []).append(run.norm_job_s if normalised else run.job_s)
    return {job: statistics.median(times) for job, times in samples.items()}


def per_layer_metrics(untraced: list[JobRun], traced: list[JobRun],
                      probe_s: float = 0.0) -> dict[str, tuple[float, str]]:
    calls = {metric_name(p): 0 for p in range(len(WRAP_POINTS))}
    self_s = {metric_name(p): 0.0 for p, (_, _, span) in enumerate(WRAP_POINTS) if span}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    max_dim = 0
    for run in traced:
        if run.trace is None:
            continue
        for name, n in run.trace["calls"].items():
            calls[name] += n
        for name, s in run.trace["self_s"].items():
            self_s[name] += s
        for layer, s in run.trace["layer_self_s"].items():
            layer_s[layer] += s
        max_dim = max(max_dim, run.trace["smith_max_dim"])
    metrics: dict[str, tuple[float, str]] = {}
    for name in calls:
        metrics[f"{name}.calls"] = (calls[name], "count")
        if name in self_s:
            metrics[f"{name}.self_s"] = (self_s[name], "s")
    for layer, s in layer_s.items():
        metrics[f"{layer}.self_s"] = (s, "s")
    metrics["exact.smith_normal_form.max_dim"] = (max_dim, "count")
    medians = job_medians(untraced)
    metrics["trace.overhead_s"] = (sum(r.norm_job_s for r in traced) - sum(medians.values()), "s")
    for command in SUBCOMMANDS:
        total = sum((t for job, t in medians.items() if job.split()[0] == command), 0.0)
        metrics[f"cli.{command.replace('-', '_')}_s"] = (total, "s")
    metrics["host.wall_s"] = (sum(job_medians(untraced, normalised=False).values()), "s")
    metrics["host.probe_s"] = (probe_s, "s")
    return metrics


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_start = time.monotonic()
    expected = json.loads(DIGESTS.read_text())
    work_dir = root / OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tasks = make_tasks(workload, seed)

    print(f"workload {workload}, seed {seed}: {len(tasks)} jobs, closed loop, one worker at a time")
    with SpeedProbe() as probe:
        runner = Runner(root, work_dir, expected, probe=probe)
        runs = closed_loop(runner, tasks, seconds, run_start)
        traced: list[JobRun] = []
        if trace:
            spans_dir = work_dir / "spans"
            spans_dir.mkdir()
            traced = closed_loop(runner, tasks, 0, run_start, traced_pass=True, spans_dir=spans_dir)

    everything = runs + traced
    if trace:
        metrics = per_layer_metrics(runs, traced, probe.median_s())
    else:
        setups = [r.setup_s * r.speed for r in runs if r.setup_s is not None]
        metrics = {
            "norm_wall_s": (sum(job_medians(runs).values()), "s"),
            # With no worker reporting back, charge the budget as set-up time.
            "setup_s": (statistics.median(setups) if setups else BUDGET_S, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }
    report = {
        "correct": not any(r.status.startswith(("exit", "wrong")) for r in everything),
        "attempted": len(everything),
        "failed": sum(r.failed for r in everything),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work_dir / "report.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "jobs": [{"job": r.task.job.id, "ell": r.task.digest_key, "traced": traced_flag,
                  "job_s": r.job_s, "setup_s": r.setup_s, "speed": r.speed, "status": r.status}
                 for traced_flag, group in ((False, runs), (True, traced)) for r in group],
        "result": report,
    }, indent=1))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "kulocal" / "cli.py").is_file():
        print(f"error: {root} holds no kulocal source (src/kulocal/cli.py); run from a checkout root",
              file=sys.stderr)
        return 2
    report = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
