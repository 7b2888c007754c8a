"""Self-tests of the benchmark itself (not of kulocal).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They take about two minutes: the traced-pass test runs every workload once
untraced and once traced.
"""

import json
import time
from pathlib import Path

import pytest

from probe import PAD_S, PROBE_S, SpeedProbe
from run import (DIGESTS, OUT_DIR, WORKLOADS, Job, JobRun, Runner, Task, closed_loop, make_tasks,
                 per_layer_metrics)
from tracer import WRAP_POINTS, metric_name

ROOT = Path(__file__).resolve().parent.parent
NOTES = Path(__file__).resolve().parent / "notes.json"


@pytest.fixture
def work_dir():
    path = ROOT / OUT_DIR / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text())


def test_corrupted_digest_is_detected(work_dir, expected):
    task = Task(Job("kernel", "C27"), None, None)
    assert Runner(ROOT, work_dir, expected).run(task).status == "ok"
    corrupted = json.loads(json.dumps(expected))
    digest = corrupted["kernel C27"][task.digest_key]
    corrupted["kernel C27"][task.digest_key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    run = Runner(ROOT, work_dir, corrupted).run(task)
    assert run.status == "wrong output" and run.failed


def test_budget_kills_worker_and_counts_budget(work_dir, expected):
    # bott-verify C243 runs for minutes; a one-second budget must stop it.
    runner = Runner(ROOT, work_dir, expected, budget_s=1.0)
    start = time.monotonic()
    run = runner.run(Task(Job("bott-verify", "C243"), None, None))
    assert time.monotonic() - start < 5.0
    assert run.status == "over budget" and run.failed
    assert run.job_s == 1.0


def test_records_match_code():
    notes = json.loads(NOTES.read_text())
    for name, jobs in WORKLOADS.items():
        assert notes["workloads"][name]["jobs"] == [job.id for job in jobs]
    names = {metric_name(p) for p in range(len(WRAP_POINTS))}
    for row in notes["layer_table"]:
        for metric in row["layer_metrics"]:
            assert metric.rsplit(".", 1)[0] in names, metric
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    per_layer = {name: unit for name, (_, unit) in per_layer_metrics([], []).items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
    assert [m["name"] for m in bench["end_to_end"]] == ["norm_wall_s", "setup_s", "peak_rss_mb"]


def test_speed_is_median_probe_time_in_window():
    probe = SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    probe.times = [PROBE_S, 2 * PROBE_S, 2 * PROBE_S, 4 * PROBE_S, PROBE_S / 2]
    assert probe.speed(1.0, 3.0) == pytest.approx(0.5)  # median of the 2nd to 4th probe
    assert probe.speed(10.0 - PAD_S, 10.0) == pytest.approx(2.0)
    assert probe.speed(20.0, 21.0) == 1.0  # no probe there
    task = Task(Job("kernel", "C27"), None, None)
    assert JobRun(task, 3.0, speed=2.0).norm_job_s == pytest.approx(6.0)
    assert JobRun(task, 3.0, status="over budget").norm_job_s == 3.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass(workload, work_dir, expected):
    """Traced outputs equal untraced ones, and the table's wrap points are hit."""
    runner = Runner(ROOT, work_dir, expected)
    tasks = make_tasks(workload, seed=7)
    start = time.monotonic()
    untraced = closed_loop(runner, tasks, 0, start)
    traced = closed_loop(runner, tasks, 0, start, traced_pass=True, spans_dir=work_dir)
    assert [r.status for r in untraced + traced] == ["ok"] * (2 * len(tasks))
    assert [r.digest for r in traced] == [r.digest for r in untraced]
    calls: dict[str, int] = {}
    for run in traced:
        for name, n in run.trace["calls"].items():
            calls[name] = calls.get(name, 0) + n
    notes = json.loads(NOTES.read_text())
    for row in notes["layer_table"]:
        if row["workload"] == workload:
            for metric in row["layer_metrics"]:
                assert calls[metric.rsplit(".", 1)[0]] >= 1, metric


def test_call_counts_repeat(work_dir, expected):
    runner = Runner(ROOT, work_dir, expected)
    task = Task(Job("pi0", "C9xC9"), 5, None)
    first, second = (runner.run(task, work_dir / "spans.tsv") for _ in range(2))
    assert first.status == second.status == "ok"
    assert first.trace["calls"] == second.trace["calls"]
    assert first.trace["calls"]["exact.smith_normal_form"] > 0
