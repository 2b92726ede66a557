"""Throughput benchmark of the ``repro.pipeline`` training-context pipeline.

Trains the same model over a grid of prefetch configurations
(workers × buffer depth) and compares step throughput against a
**sequential baseline**: the identical trainer with
``per_step_rng=True, prefetch_workers=0``, i.e. the same derived-RNG
sampling executed inline.  Every grid point must reproduce the baseline's
``loss_history`` **bit-identically** — the speedup is never bought with a
numerics change (same contract as the serving benchmark).

A legacy run (the shared advancing RNG stream, today's default) is timed
for reference; its losses follow a different — equally valid — random
trajectory, so it is excluded from the bit-identity check.

Overlap needs hardware to run on: with one usable core the pipeline can
only break even (the JSON records ``parallel_hardware: false`` and the
benchmark asserts overhead-neutrality instead of speedup).  Usable means
the CPUs this process may run on, so a run pinned to one CPU of a larger
host counts as single-core.

``benchmarks/bench_pipeline_throughput.py`` writes the result as
``BENCH_pipeline.json`` at the repo root; ``--smoke`` runs a shrunken grid
in seconds and skips the JSON write.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from .. import obs
from ..core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from ..data import make_cold_start_split, movielens_like

__all__ = [
    "run_pipeline_benchmark",
    "write_pipeline_bench_json",
    "PIPELINE_BENCH_FILENAME",
]

PIPELINE_BENCH_FILENAME = "BENCH_pipeline.json"


def _setup(smoke: bool):
    """Dataset/model/trainer shapes.

    The full profile is deliberately sampling-heavy (dense rating graph,
    small context, light model): that is the regime the pipeline exists
    for — see ``docs/training_pipeline.md`` for the span numbers.
    """
    if smoke:
        dataset = movielens_like(num_users=60, num_items=50, seed=0,
                                 ratings_per_user=15.0)
        model_cfg = dict(num_blocks=1, num_heads=2, attr_dim=4, seed=0)
        trainer_cfg = dict(steps=6, batch_size=2, context_users=8,
                           context_items=8, seed=0)
        grid = [(1, 2), (2, 4)]
    else:
        dataset = movielens_like(num_users=600, num_items=400, seed=0,
                                 ratings_per_user=120.0)
        model_cfg = dict(num_blocks=1, num_heads=2, attr_dim=4, seed=0)
        trainer_cfg = dict(steps=30, batch_size=8, context_users=12,
                           context_items=12, seed=0)
        grid = [(1, 2), (1, 8), (2, 2), (2, 8), (4, 8)]
    split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
    return dataset, split, model_cfg, trainer_cfg, grid


def _fit_once(dataset, split, model_cfg: dict, trainer_cfg: dict,
              **overrides) -> tuple[list[float], float, HIRETrainer]:
    """Fresh model + trainer (same seeds every call), one timed fit."""
    model = HIRE(dataset, HIREConfig(**model_cfg))
    config = TrainerConfig(**{**trainer_cfg, **overrides})
    trainer = HIRETrainer(model, split, config=config)
    start = time.perf_counter()
    history = trainer.fit()
    seconds = time.perf_counter() - start
    return list(history), seconds, trainer


def _sample_fraction(dataset, split, model_cfg, trainer_cfg) -> float:
    """Share of ``train_step`` wall-clock spent in the ``sample`` span,
    measured on a short profiled sequential run (not timed)."""
    model = HIRE(dataset, HIREConfig(**model_cfg))
    config = TrainerConfig(**{**trainer_cfg,
                              "steps": max(trainer_cfg["steps"] // 3, 2),
                              "per_step_rng": True})
    trainer = HIRETrainer(model, split, config=config)
    obs.reset_spans()
    with obs.profiling():
        trainer.fit()
    totals = obs.span_totals()
    obs.reset_spans()
    step = totals.get("train_step")
    sample = totals.get("train_step/sample")
    if step is None or sample is None or step.total_seconds <= 0:
        return 0.0
    return sample.total_seconds / step.total_seconds


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the host's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pipeline_benchmark(smoke: bool = False) -> dict:
    """Sequential per-step-RNG baseline vs the prefetch grid."""
    dataset, split, model_cfg, trainer_cfg, grid = _setup(smoke)

    # Warm-up (first-touch allocations, BLAS init), then the baseline.
    _fit_once(dataset, split, model_cfg,
              {**trainer_cfg, "steps": 2}, per_step_rng=True)
    expected, baseline_seconds, _ = _fit_once(
        dataset, split, model_cfg, trainer_cfg, per_step_rng=True)
    legacy_history, legacy_seconds, _ = _fit_once(
        dataset, split, model_cfg, trainer_cfg)
    steps = trainer_cfg["steps"]

    runs = []
    bit_identical = True
    for workers, depth in grid:
        history, seconds, trainer = _fit_once(
            dataset, split, model_cfg, trainer_cfg,
            prefetch_workers=workers, prefetch_buffer=depth)
        snapshot = trainer.last_pipeline.snapshot()
        result = {
            "workers": workers,
            "buffer_depth": depth,
            "seconds": seconds,
            "steps_per_second": steps / seconds,
            "speedup_vs_sequential": baseline_seconds / seconds,
            "bit_identical_to_sequential": history == expected,
            "buffer_hits": snapshot["pipeline.buffer_hits"]["value"],
            "starvations": snapshot["pipeline.starvations"]["value"],
            "wait_seconds_total": snapshot["pipeline.wait_seconds"]["sum"],
            "sample_seconds_p50": snapshot["pipeline.sample_seconds"]["p50"],
        }
        bit_identical = bit_identical and result["bit_identical_to_sequential"]
        runs.append(result)

    best = max(runs, key=lambda r: r["speedup_vs_sequential"])
    cpu_count = usable_cpu_count()
    return {
        "benchmark": "pipeline_throughput",
        "smoke": smoke,
        "cpu_count": cpu_count,
        "parallel_hardware": cpu_count > 1,
        "config": {
            "steps": steps,
            "batch_size": trainer_cfg["batch_size"],
            "context_users": trainer_cfg["context_users"],
            "context_items": trainer_cfg["context_items"],
            "num_users": dataset.num_users,
            "num_items": dataset.num_items,
        },
        "sample_fraction_sequential": _sample_fraction(
            dataset, split, model_cfg, trainer_cfg),
        "baseline_sequential": {
            "seconds": baseline_seconds,
            "steps_per_second": steps / baseline_seconds,
        },
        "legacy_shared_stream": {
            "seconds": legacy_seconds,
            "steps_per_second": steps / legacy_seconds,
            # Different (equally valid) RNG scheme — different trajectory.
            "same_trajectory_as_baseline": legacy_history == expected,
        },
        "runs": runs,
        "bit_identical_all_runs": bit_identical,
        "best_speedup": best["speedup_vs_sequential"],
        "best_config": {"workers": best["workers"],
                        "buffer_depth": best["buffer_depth"]},
    }


def render_pipeline_bench(payload: dict) -> str:
    """Text table of the benchmark payload (CLI + results/ artifact)."""
    base = payload["baseline_sequential"]
    lines = [
        f"sequential baseline (per-step rng): "
        f"{base['steps_per_second']:6.2f} steps/s "
        f"({base['seconds']:.2f}s for {payload['config']['steps']} steps); "
        f"sample fraction {payload['sample_fraction_sequential']:.0%}",
        f"legacy shared-stream sequential:    "
        f"{payload['legacy_shared_stream']['steps_per_second']:6.2f} steps/s",
    ]
    for run in payload["runs"]:
        lines.append(
            f"workers={run['workers']} "
            f"depth={run['buffer_depth']}: "
            f"{run['steps_per_second']:6.2f} steps/s "
            f"({run['speedup_vs_sequential']:.2f}x)  "
            f"hits {run['buffer_hits']:.0f} "
            f"starved {run['starvations']:.0f}  "
            f"bit-identical: {run['bit_identical_to_sequential']}")
    best = payload["best_config"]
    lines.append(
        f"best: workers={best['workers']} "
        f"depth={best['buffer_depth']} -> {payload['best_speedup']:.2f}x "
        f"(cpu_count={payload['cpu_count']})")
    return "\n".join(lines)


def write_pipeline_bench_json(payload: dict, repo_root: Path | None = None) -> Path:
    """Write the trajectory file ``BENCH_pipeline.json`` at the repo root."""
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    path = repo_root / PIPELINE_BENCH_FILENAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
