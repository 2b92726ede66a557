"""Benchmark of the ``repro.online`` incremental-learning loop.

Three sections, written as ``BENCH_online.json`` at the repo root by
``benchmarks/bench_online_loop.py`` / ``cli online``:

* **recovery** — a simulated distribution shift (every warm rating flips
  across the scale midpoint) streams through the controller as re-rating
  deltas; the loop fine-tunes, gates, and hot-swaps round by round while
  the frozen probe — rebuilt against the *shifted* ground truth — tracks
  how fast the serving model recovers.  Headline:
  ``rmse_recovery_ratio`` (probe RMSE at the shift over the best promoted
  RMSE; higher means the loop clawed more accuracy back) plus
  ``rounds_to_recover``.
* **serve_during_training** — a live :class:`repro.serve.PredictionService`
  replays a workload while a fine-tune round trains and hot-swaps on a
  background thread.  Every response must resolve, and every score must be
  bitwise identical to the sequential reference of *either* the pre-swap
  or the post-swap model — the swap is atomic per request, never blended.
  Also records swap-latency p99 from the ``online.swap_seconds`` histogram.
* **reproducibility** — the same round run twice from the same
  (checkpoint, log offset, seed); parameters must be bit-identical (max
  abs diff exactly 0).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from ..core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from ..data import make_cold_start_split, movielens_like
from ..eval.tasks import EvalTask, build_eval_tasks
from ..online import (
    FineTuneConfig,
    GateConfig,
    IncrementalTrainer,
    OnlineConfig,
    OnlineController,
    PromotionGate,
    RatingLog,
)
from ..serve import PredictionService, ServiceConfig, replay_workload, synthesize_workload
from ..serve.registry import ModelRegistry
from .serve_bench import _score_sequential

__all__ = [
    "run_online_benchmark",
    "write_online_bench_json",
    "ONLINE_BENCH_FILENAME",
]

ONLINE_BENCH_FILENAME = "BENCH_online.json"


def _setup(smoke: bool):
    if smoke:
        dataset = movielens_like(num_users=50, num_items=40, seed=0,
                                 ratings_per_user=12.0)
        model_cfg = dict(num_blocks=1, num_heads=2, attr_dim=4, seed=0)
        base_steps, tune_steps, max_probe, num_rounds = 4, 3, 4, 2
        num_requests = 10
    else:
        dataset = movielens_like(num_users=120, num_items=90, seed=0,
                                 ratings_per_user=25.0)
        model_cfg = dict(num_blocks=2, num_heads=4, attr_dim=8, seed=0)
        base_steps, tune_steps, max_probe, num_rounds = 40, 12, 8, 4
        num_requests = 32
    split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
    model = HIRE(dataset, HIREConfig(**model_cfg))
    HIRETrainer(model, split, config=TrainerConfig(
        steps=base_steps, batch_size=4, seed=0)).fit()
    model.eval()
    return dataset, split, model, tune_steps, max_probe, num_rounds, num_requests


def _flip(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """Mirror ratings across the scale midpoint: the simulated shift."""
    return np.clip(low + high - values, low, high)


def _shifted_probe(tasks: list[EvalTask], low: float,
                   high: float) -> list[EvalTask]:
    shifted = []
    for task in tasks:
        support = task.support.copy()
        query = task.query.copy()
        if support.size:
            support[:, 2] = _flip(support[:, 2], low, high)
        query[:, 2] = _flip(query[:, 2], low, high)
        shifted.append(EvalTask(user=task.user, support=support, query=query))
    return shifted


def _run_recovery(split, model, tune_steps: int, max_probe: int,
                  num_rounds: int) -> dict:
    """Stream the shifted warm ratings through the loop, round by round."""
    train = split.train_ratings()
    low, high = float(train[:, 2].min()), float(train[:, 2].max())
    shifted = train.copy()
    shifted[:, 2] = _flip(shifted[:, 2], low, high)

    probe = build_eval_tasks(split, "user", min_query=2, seed=1,
                             max_tasks=max_probe)
    gate = PromotionGate(split, _shifted_probe(probe, low, high),
                         GateConfig(context_users=16, context_items=16,
                                    accept_margin=0.02))
    registry = ModelRegistry(split.dataset)
    registry.add("base", model)
    trainer = IncrementalTrainer(split, config=FineTuneConfig(
        steps=tune_steps, batch_size=4, fresh_boost=4,
        context_users=16, context_items=16))
    controller = OnlineController(
        registry, trainer, gate,
        config=OnlineConfig(min_new_ratings=1, retain_versions=2))

    rmse_at_shift = gate.evaluate(model).rmse
    chunks = np.array_split(shifted, num_rounds)
    rounds = []
    active_series = [rmse_at_shift]
    for chunk in chunks:
        controller.ingest(chunk)
        summary = controller.run_round()
        rounds.append({key: summary[key] for key in summary
                       if key not in ("reason",)})
        stats = controller.stats()
        active_series.append(stats["active_probe_rmse"] or active_series[-1])

    best_rmse = min(active_series)
    recover_round = next(
        (index for index, value in enumerate(active_series[1:])
         if value <= rmse_at_shift * 0.95), None)
    snapshot = controller.metrics.snapshot()
    return {
        "rating_scale": [low, high],
        "num_shift_deltas": len(shifted),
        "num_rounds": len(rounds),
        "probe_tasks": len(probe),
        "rmse_at_shift": rmse_at_shift,
        "active_rmse_series": active_series,
        "best_promoted_rmse": best_rmse,
        "rmse_recovery_ratio": rmse_at_shift / best_rmse,
        "rounds_to_recover": recover_round,
        "promotions": int(snapshot.get("online.promotions_total",
                                       {}).get("value", 0)),
        "rejections": int(snapshot.get("online.rejections_total",
                                       {}).get("value", 0)),
        "rounds_detail": rounds,
    }


def _run_serve_during_training(split, model, tune_steps: int, max_probe: int,
                               num_requests: int) -> dict:
    """Replay a workload while a round trains and hot-swaps concurrently.

    The delta log is pre-filled (the serving graph never changes during the
    replay), so every response has exactly two legal values: the sequential
    reference under the pre-swap model or under the post-swap one.
    """
    tasks = build_eval_tasks(split, "user", min_query=2, seed=2,
                             max_tasks=max_probe)
    workload = synthesize_workload(tasks, num_requests, seed=0)
    probe = build_eval_tasks(split, "user", min_query=2, seed=1,
                             max_tasks=max_probe)
    gate = PromotionGate(split, probe,
                         GateConfig(context_users=16, context_items=16,
                                    accept_margin=1.0))
    registry = ModelRegistry(split.dataset)
    registry.add("base", model)
    trainer = IncrementalTrainer(split, config=FineTuneConfig(
        steps=tune_steps, batch_size=4,
        context_users=16, context_items=16))
    log = RatingLog()
    deltas = split.train_ratings()[:16].copy()
    deltas[:, 2] = np.clip(deltas[:, 2] + 1.0, deltas[:, 2].min(),
                           deltas[:, 2].max())
    log.append(deltas)
    controller = OnlineController(
        registry, trainer, gate, log=log,
        config=OnlineConfig(min_new_ratings=1))

    config = ServiceConfig(queue_size=max(num_requests, 8), max_batch_size=4)
    service = PredictionService.from_split(registry, split, tasks,
                                           config=config)
    try:
        reference_before = _score_sequential(model, split, tasks, workload,
                                             config)
        summary: dict = {}

        def train_and_swap():
            summary.update(controller.run_round(force=True))

        background = threading.Thread(target=train_and_swap)
        start = time.perf_counter()
        background.start()
        scores = replay_workload(service, workload)
        replay_seconds = time.perf_counter() - start
        background.join()

        _, final_model = registry.active()
        reference_after = _score_sequential(final_model, split, tasks,
                                            workload, config)
        served_before = served_after = mismatches = 0
        for got, before, after in zip(scores, reference_before,
                                      reference_after):
            if np.array_equal(got, before):
                served_before += 1
            elif np.array_equal(got, after):
                served_after += 1
            else:
                mismatches += 1
        swap_snapshot = controller.metrics.snapshot().get(
            "online.swap_seconds", {})
    finally:
        service.close()
        controller.close()

    return {
        "num_requests": len(workload),
        "responses_resolved": len(scores),
        "all_futures_resolved": len(scores) == len(workload),
        "round_status": summary.get("status"),
        "served_pre_swap_model": served_before,
        "served_post_swap_model": served_after,
        "bit_identity_mismatches": mismatches,
        "bit_identical": mismatches == 0,
        "replay_seconds": replay_seconds,
        "swap_p99_ms": swap_snapshot.get("p99", 0.0) * 1e3,
        "swap_count": swap_snapshot.get("count", 0),
    }


def _run_reproducibility(split, model, tune_steps: int) -> dict:
    """The same round run twice must be bit-identical."""
    deltas = split.train_ratings()[:12]
    offset = len(deltas)
    results = []
    for _ in range(2):
        trainer = IncrementalTrainer(split, config=FineTuneConfig(
            steps=tune_steps, batch_size=4,
            context_users=16, context_items=16))
        results.append(trainer.fine_tune(model, deltas, offset))
    reference = results[0].model.state_dict()
    max_diff = 0.0
    for result in results[1:]:
        for name, value in result.model.state_dict().items():
            diff = float(np.max(np.abs(value - reference[name]))) if value.size else 0.0
            max_diff = max(max_diff, diff)
    return {
        "runs": len(results),
        "round_seeds": [r.round_seed for r in results],
        "same_round_seed": len({r.round_seed for r in results}) == 1,
        "max_param_diff": max_diff,
        "bit_identical": max_diff == 0.0,
    }


def run_online_benchmark(smoke: bool = False) -> dict:
    """Shift recovery, serve-during-training bit-identity, reproducibility."""
    (dataset, split, model, tune_steps, max_probe, num_rounds,
     num_requests) = _setup(smoke)
    recovery = _run_recovery(split, model, tune_steps, max_probe, num_rounds)
    serve_section = _run_serve_during_training(split, model, tune_steps,
                                               max_probe, num_requests)
    repro_section = _run_reproducibility(split, model, tune_steps)
    return {
        "benchmark": "online_loop",
        "smoke": smoke,
        # Methodology marker: tools/check_bench_regression.py refuses to
        # compare payloads whose measurement protocol differs.
        "measurement": {
            "protocol": "online-loop-v1",
            "rounds": num_rounds,
            "tune_steps": tune_steps,
        },
        "config": {
            "num_users": dataset.num_users,
            "num_items": dataset.num_items,
            "probe_tasks": max_probe,
            "tune_steps": tune_steps,
        },
        "recovery": recovery,
        "serve_during_training": serve_section,
        "reproducibility": repro_section,
    }


def write_online_bench_json(payload: dict, repo_root: Path | None = None) -> Path:
    """Write the trajectory file ``BENCH_online.json`` at the repo root."""
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    path = repo_root / ONLINE_BENCH_FILENAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
