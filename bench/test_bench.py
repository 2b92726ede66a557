"""Self-test of the benchmark: ``pytest bench -q`` (about 20 seconds).

Runs every workload at ``--smoke`` scale in both modes and checks the
pieces the numbers rest on: the seeded schedule, self time, the busy-time
denominator, the reference check and the determinism of online rounds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from . import checks, layers, loadgen, trace, workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace_flag", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace_flag):
    done = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace_flag), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace_flag else "end_to_end"]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    for metric in expected:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "train", "--seed", "0", "--seconds", "1",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_schedule_is_deterministic_per_seed():
    def arrivals(seed):
        return loadgen.poisson_arrivals(4.0, 30.0, np.random.default_rng(seed))

    assert np.array_equal(arrivals(3), arrivals(3))
    assert not np.array_equal(arrivals(3), arrivals(4))
    times = arrivals(3)
    assert (np.diff(times) > 0).all() and 0 <= times[0] and times[-1] < 30.0
    assert 60 < len(times) < 180


def test_self_time_subtracts_the_covered_part_of_children():
    span = trace.Span
    spans = [
        span(1, "root", 0.0, 10.0, "w", None, 0, None),
        span(2, "a", 1.0, 3.0, "w", 1, 0, None),
        span(3, "b", 2.0, 4.0, "w", 1, 1, None),    # overlaps a
        span(4, "c", 8.0, 12.0, "w", 1, 2, None),   # runs past the root
        span(5, "d", 1.5, 2.5, "w", 2, 3, None),    # grandchild
        span(6, "other", 0.0, 5.0, "x", None, 4, None),
    ]
    self_time = trace.self_times(spans)
    assert self_time[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert self_time[2] == pytest.approx(1.0)
    assert self_time[6] == pytest.approx(5.0)


def test_busy_frac_counts_the_uninstrumented_part_of_a_batch():
    span = trace.Span
    spans = [
        span(1, "serve.batch", 0.0, 10.0, "worker", None, 0, None),
        span(2, "assemble", 1.0, 3.0, "worker", 1, 7, None),
        span(3, "forward", 4.0, 8.0, "worker", 1, 0, None),
        span(4, "dataplane.apply", 0.0, 1.0, "main", None, 0, None),
    ]
    outcome = workloads.Outcome(latencies_ms=np.ones(1), throughput=1.0,
                                quality=1.0, attempted=1, failed=0, errors=[])
    metrics = layers.layer_metrics(outcome, spans, "main", 1.0, 1e-3)
    # The batch's own 4 s (cache lookups, grouping, resolving) stay in the
    # denominator; the load thread's span does not enter it.
    assert metrics["assemble.busy_frac"] == pytest.approx(0.2)
    assert metrics["forward.busy_frac"] == pytest.approx(0.4)
    assert metrics["trace.overhead_frac"] == pytest.approx(4e-3 / 11.0)


def test_reference_check_catches_a_perturbed_score():
    workload = workloads.WORKLOADS["serve-cold"](True)
    stack = workload.setup()
    try:
        task = stack.tasks[0]
        request = stack.service.submit_request(
            task.user, task.query_items, task.support_items,
            context_users=12, context_items=12)
        scores = request.future.result(30.0)
    finally:
        workload.close(stack)
    snapshot = stack.service.graph_store.state
    config = stack.service.config
    errors, distinct = checks.check_served(
        stack.model, config, [(request, snapshot, scores)])
    assert errors == [] and distinct == 1
    perturbed = scores.copy()
    perturbed[-1] = np.nextafter(perturbed[-1], np.inf)
    errors, _ = checks.check_served(stack.model, config,
                                    [(request, snapshot, perturbed)])
    assert len(errors) == 1


def test_online_rounds_repeat_for_the_same_seed(tmp_path):
    workload = workloads.WORKLOADS["online"](True)
    runs = []
    for _ in range(2):
        stack = workload.setup()
        try:
            outcome = workload.run(stack, 5, 1.0, tmp_path)
        finally:
            workload.close(stack)
        assert outcome.errors == []
        runs.append(([(r["status"], r["applied"], r["log_offset"])
                      for r in outcome.telemetry["rounds"]], outcome.quality))
    # How many rounds fit in the window depends on speed; the rounds both
    # runs reached, and the reported round's RMSE, may not.
    (first, quality), (second, again) = runs
    common = min(len(first), len(second))
    assert common >= 2 and first[:common] == second[:common]
    assert quality == again
