"""Telemetry and overload benchmark of the ``repro.serve`` service.

Both sections check every served score **bit-identical** to a
**sequential baseline** that scores one request at a time through the same
predictor code path — no queue, no batching, no cache, Tensor-path
forwards.  End-to-end serving speed is judged by the ``bench/`` ledger.

A **tracing** section measures the telemetry plane itself: the same
workload replayed with per-request stage tracing + rolling windows + the
JSONL trace sink + the background exporter all on, against everything off
— recording the overhead (must stay within a few percent), a
trace-derived per-stage latency breakdown (queue wait / batch form /
assemble / forward / respond), and a bit-identity check proving
the plane is passive.

An **adaptive** section measures the budget ladder under synthetic
overload on a power-law workload — a one-worker service flooded faster
than it can drain, once with fixed budgets and once with the ladder on,
recording the p99 each regime reaches, the SLO health verdict, and a
bit-identity check of every degraded score against a sequential replay
at the same effective ``(n, m)``.

``benchmarks/bench_serve_throughput.py`` writes the result as
``BENCH_serve.json`` at the repo root; ``--smoke`` runs a shrunken config
in seconds and skips the JSON write.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from .. import nn
from ..core import HIRE, HIREConfig
from ..core.predictor import assemble_user_chunks, build_serving_graph, task_chunk_rng
from ..core.sampling import NeighborhoodSampler
from ..data import make_cold_start_split, movielens_like
from ..eval.tasks import build_eval_tasks
from ..obs import TRACE_STAGES, default_serve_rules, read_run
from ..serve import (
    PredictionService,
    QueueFullError,
    ServiceConfig,
    WorkloadRequest,
    replay_workload,
    synthesize_power_law_workload,
    synthesize_workload,
)

__all__ = [
    "run_serve_benchmark",
    "write_serve_bench_json",
    "SERVE_BENCH_FILENAME",
]

SERVE_BENCH_FILENAME = "BENCH_serve.json"


def _setup(smoke: bool):
    if smoke:
        dataset = movielens_like(num_users=60, num_items=50, seed=0,
                                 ratings_per_user=15.0)
        model_cfg = dict(num_blocks=1, num_heads=2, attr_dim=4, seed=0)
        max_tasks, num_requests = 6, 18
    else:
        dataset = movielens_like(num_users=150, num_items=100, seed=0,
                                 ratings_per_user=30.0)
        model_cfg = dict(num_blocks=3, num_heads=8, attr_dim=16, seed=0)
        max_tasks, num_requests = 12, 96
    split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
    tasks = build_eval_tasks(split, "user", min_query=2, seed=0,
                             max_tasks=max_tasks)
    model = HIRE(dataset, HIREConfig(**model_cfg))
    workload = synthesize_workload(tasks, num_requests, seed=0)
    return dataset, split, tasks, model, workload


def _score_sequential(model, split, tasks, workload, config: ServiceConfig):
    """One-request-at-a-time reference: the exact predictor code path,
    assembled and forwarded per request with no batching or caching.
    Per-request context-budget overrides are honored, mirroring
    ``PredictionService.submit``."""
    graph, candidate_users, candidate_items = build_serving_graph(split, tasks)
    sampler = NeighborhoodSampler()
    scores = []
    for request in workload:
        query_items = np.asarray(request.item_ids, dtype=np.int64)
        support_items = np.asarray(request.support_items, dtype=np.int64)
        context_users = (config.context_users if request.context_users is None
                         else request.context_users)
        context_items = (config.context_items if request.context_items is None
                         else request.context_items)
        total = None
        for sample_index in range(config.num_context_samples):
            def rng_factory(start, _sample=sample_index):
                return task_chunk_rng(config.seed, request.user, _sample, start)
            chunks = assemble_user_chunks(
                graph, sampler, request.user, query_items, support_items,
                context_users=context_users,
                context_items=context_items,
                reveal_fraction=config.reveal_fraction,
                candidate_users=candidate_users,
                candidate_items=candidate_items,
                rng_factory=rng_factory)
            part = np.empty(len(query_items), dtype=np.float64)
            with nn.no_grad():
                for chunk in chunks:
                    out = model.forward(chunk.context).data
                    part[chunk.start:chunk.start + len(chunk)] = (
                        out[chunk.user_row, chunk.cols])
            total = part if total is None else total + part
        scores.append(total / config.num_context_samples)
    return scores


def _warm_tracing_service(model, split, tasks, workload, trace_enabled: bool,
                          trace_sink=None, export_path=None):
    """Build a service with the telemetry plane on or off and warm it
    (caches, plans, thread-local state).

    The export interval is kept short enough to guarantee many periodic
    snapshots during the timed replays, but not so hot that the exporter
    thread (each tick renders ``health()``, merging the windowed
    histograms) becomes a workload of its own on a single-core runner.
    """
    config = ServiceConfig(max_batch_size=8,
                           queue_size=max(len(workload), 8),
                           trace_enabled=trace_enabled,
                           trace_sink=trace_sink,
                           export_path=export_path,
                           export_interval_seconds=0.25)
    service = PredictionService.from_split(model, split, tasks, config=config)
    replay_workload(service, workload)
    return service


def _run_tracing_benchmark(model, split, tasks, workload, expected,
                           smoke: bool) -> dict:
    """Tracing-overhead section: full plane on (tracer + stage windows +
    JSONL trace sink + background exporter) vs everything off, plus the
    trace-derived per-stage latency breakdown.

    The headline numbers: ``overhead`` (traced vs untraced steady-state
    wall time; the plane must stay within a few percent) and
    ``bit_identical`` (traced scores exactly equal untraced scores and the
    sequential baseline — tracing is passive by construction, this proves
    it end-to-end).  The overhead is a handful of clock reads per request,
    far below scheduler noise on a single run, so both modes stay warm at
    once, their timed replays interleave (drift lands on both sides of
    the ratio), and each mode keeps its fastest replay.
    """
    repeats = 1 if smoke else 3
    with tempfile.TemporaryDirectory() as tmp:
        trace_sink = str(Path(tmp) / "traces.jsonl")
        export_path = str(Path(tmp) / "telemetry.jsonl")
        untraced_service = _warm_tracing_service(
            model, split, tasks, workload, trace_enabled=False)
        traced_service = _warm_tracing_service(
            model, split, tasks, workload, trace_enabled=True,
            trace_sink=trace_sink, export_path=export_path)
        try:
            untraced_seconds = traced_seconds = float("inf")
            untraced_scores = traced_scores = None
            for _ in range(repeats):
                start = time.perf_counter()
                untraced_scores = replay_workload(untraced_service, workload)
                untraced_seconds = min(untraced_seconds,
                                       time.perf_counter() - start)
                start = time.perf_counter()
                traced_scores = replay_workload(traced_service, workload)
                traced_seconds = min(traced_seconds,
                                     time.perf_counter() - start)
            snapshot = traced_service.metrics.snapshot()
            stages = {}
            for stage in TRACE_STAGES:
                snap = snapshot.get(f"serve.stage.{stage}_seconds")
                if snap and snap["count"]:
                    stages[stage] = {"count": snap["count"],
                                     "mean_ms": snap["mean"] * 1e3,
                                     "p99_ms": snap["p99"] * 1e3}
            exports = traced_service.exporter.num_exports
            traces = traced_service.tracer.completed
        finally:
            untraced_service.close()
            traced_service.close()
        export_records = [r for r in read_run(export_path)
                          if r.get("type") == "export"]
        trace_records = [r for r in read_run(trace_sink)
                         if r.get("type") == "trace"]
    bit_identical = all(
        np.array_equal(a, b) for a, b in zip(untraced_scores, traced_scores)
    ) and all(
        np.array_equal(a, b) for a, b in zip(expected, traced_scores))
    return {
        "num_requests": len(workload),
        "repeats": repeats,
        "untraced_seconds": untraced_seconds,
        "traced_seconds": traced_seconds,
        "overhead": traced_seconds / untraced_seconds - 1.0,
        "bit_identical": bit_identical,
        "stage_breakdown": stages,
        "traces_completed": traces,
        "trace_sink_records": len(trace_records),
        "export_snapshots": exports,
        "export_file_records": len(export_records),
    }


def _rotate_repeats(workload) -> list[WorkloadRequest]:
    """Make a repeat-heavy workload coalescing-proof.

    The k-th repeat of a ``(user, items)`` request gets its query tuple
    rotated by k, so identical traffic stops sharing a coalescing key and
    every submission costs a real assembly + forward.  The overload
    benchmark needs this: with coalescing in play, fixed budgets collapse
    duplicate hot requests into one forward each and the budget ladder's
    effect would be measured against the coalescer instead of the queue.
    """
    seen: dict = {}
    rotated = []
    for request in workload:
        key = (request.user, request.item_ids)
        turn = seen.get(key, 0)
        seen[key] = turn + 1
        shift = turn % len(request.item_ids)
        items = request.item_ids[shift:] + request.item_ids[:shift]
        rotated.append(WorkloadRequest(user=request.user, item_ids=items,
                                       support_items=request.support_items))
    return rotated


def _replay_capturing_budgets(service, workload, timeout: float = 300.0):
    """Replay through ``submit_request`` and keep each request's effective
    ``(context_users, context_items)`` — the budgets the adaptive ladder
    actually assigned, which the sequential bit-identity check replays."""
    requests = []
    for request in workload:
        supports = (np.asarray(request.support_items, dtype=np.int64)
                    if request.support_items is not None else None)
        while True:
            try:
                requests.append(service.submit_request(
                    request.user, request.item_ids, supports,
                    context_users=request.context_users,
                    context_items=request.context_items))
                break
            except QueueFullError:
                time.sleep(0.001)
    scores = [r.future.result(timeout) for r in requests]
    budgets = [(r.context_users, r.context_items) for r in requests]
    return scores, budgets


def _run_adaptive_benchmark(model, split, tasks, config: ServiceConfig,
                            smoke: bool) -> dict:
    """Adaptive budgets under overload, on a power-law workload.

    A one-worker service is flooded with the whole workload at once
    (queue depth ≈ workload size; repeats rotated via
    :func:`_rotate_repeats` so coalescing cannot soak up the load).  Fixed
    budgets first, then the ladder; the ladder sheds *work* instead of
    requests, so its p99 must land under the fixed regime's while each
    degraded score stays bit-identical to a sequential replay at its
    effective budgets.  The context cache is off so the ratio measures
    the ladder, not cache luck.
    """
    num_requests = 12 if smoke else 48
    workload = synthesize_power_law_workload(tasks, num_requests, seed=4)
    # One worker, whole workload queued.
    overload = _rotate_repeats(workload)
    overload_expected = _score_sequential(model, split, tasks, overload,
                                          config)
    ladder = ((0, config.context_users, config.context_items),
              (2, 24, 24),
              (8, 16, 16))
    base_kwargs = dict(max_batch_size=4, num_workers=1,
                       queue_size=max(num_requests * 2, 16),
                       cache_enabled=False,
                       window_seconds=600.0, short_window_seconds=60.0,
                       seed=config.seed)
    fixed_service = PredictionService.from_split(
        model, split, tasks, config=ServiceConfig(**base_kwargs))
    try:
        replay_workload(fixed_service, overload[:2])  # warm worker thread
        fixed_scores, _ = _replay_capturing_budgets(fixed_service, overload)
        fixed_p99 = fixed_service.metrics.snapshot()[
            "serve.latency_seconds"]["p99"]
    finally:
        fixed_service.close()

    slo_p99 = fixed_p99 * 0.8
    adaptive_service = PredictionService.from_split(
        model, split, tasks,
        config=ServiceConfig(adaptive_budgets=True, budget_ladder=ladder,
                             slo_rules=default_serve_rules(
                                 max_p99_seconds=slo_p99),
                             **base_kwargs))
    try:
        replay_workload(adaptive_service, overload[:2])
        adaptive_scores, budgets = _replay_capturing_budgets(
            adaptive_service, overload)
        snapshot = adaptive_service.metrics.snapshot()
        adaptive_p99 = snapshot["serve.latency_seconds"]["p99"]
        degraded = snapshot.get("serve.assemble.degraded_total",
                                {}).get("value", 0)
        health_state = adaptive_service.health()["state"]
    finally:
        adaptive_service.close()

    fixed_identical = all(
        np.array_equal(a, b) for a, b in zip(overload_expected, fixed_scores))
    degraded_workload = [
        WorkloadRequest(user=w.user, item_ids=w.item_ids,
                        support_items=w.support_items,
                        context_users=n, context_items=m)
        for w, (n, m) in zip(overload, budgets)]
    degraded_expected = _score_sequential(model, split, tasks,
                                          degraded_workload, config)
    adaptive_identical = all(
        np.array_equal(a, b)
        for a, b in zip(degraded_expected, adaptive_scores))

    # Per-rung bit-identity: explicit overrides at each ladder budget must
    # reproduce a sequential replay at that same (n, m).
    rung_checks = []
    probe = workload[:2 if smoke else 3]
    rung_service = PredictionService.from_split(
        model, split, tasks, config=ServiceConfig(cache_enabled=False,
                                                  seed=config.seed))
    try:
        for depth, n, m in ladder:
            rung_workload = [
                WorkloadRequest(user=w.user, item_ids=w.item_ids,
                                support_items=w.support_items,
                                context_users=n, context_items=m)
                for w in probe]
            rung_expected = _score_sequential(model, split, tasks,
                                              rung_workload, config)
            rung_scores = replay_workload(rung_service, rung_workload)
            rung_checks.append({
                "rung": [depth, n, m],
                "bit_identical": all(
                    np.array_equal(a, b)
                    for a, b in zip(rung_expected, rung_scores)),
            })
    finally:
        rung_service.close()

    return {
        "num_requests": num_requests,
        "ladder": [list(rung) for rung in ladder],
        "fixed_p99_ms": fixed_p99 * 1e3,
        "adaptive_p99_ms": adaptive_p99 * 1e3,
        "p99_gain": fixed_p99 / adaptive_p99 if adaptive_p99 else None,
        "slo_p99_ms": slo_p99 * 1e3,
        "health_state": health_state,
        "degraded_requests": degraded,
        "fixed_bit_identical": fixed_identical,
        "degraded_bit_identical": adaptive_identical,
        "rung_checks": rung_checks,
    }


def run_serve_benchmark(smoke: bool = False) -> dict:
    """Tracing-overhead and adaptive-ladder sections on one model."""
    dataset, split, tasks, model, workload = _setup(smoke)
    config = ServiceConfig()  # shared assembly knobs for every mode
    expected = _score_sequential(model, split, tasks, workload, config)
    tracing = _run_tracing_benchmark(model, split, tasks, workload, expected,
                                     smoke)
    adaptive = _run_adaptive_benchmark(model, split, tasks, config, smoke)
    return {
        "benchmark": "serve_throughput",
        "smoke": smoke,
        "config": {
            "num_requests": len(workload),
            "num_tasks": len(tasks),
            "context_users": config.context_users,
            "context_items": config.context_items,
            "num_users": dataset.num_users,
            "num_items": dataset.num_items,
        },
        "tracing": tracing,
        "adaptive": adaptive,
    }


def write_serve_bench_json(payload: dict, repo_root: Path | None = None) -> Path:
    """Write the trajectory file ``BENCH_serve.json`` at the repo root."""
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    path = repo_root / SERVE_BENCH_FILENAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
