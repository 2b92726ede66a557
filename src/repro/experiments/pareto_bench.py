"""Pareto frontier of context budgets: accuracy vs serving latency.

The adaptive budget ladder (``docs/adaptive_context.md``) trades context
size ``(n, m)`` for latency under load; this benchmark measures what that
dial actually buys.  A briefly trained HIRE scores every evaluation task
at each grid budget, timing **assembly** (neighbourhood sampling +
context construction, the part the vectorized sampler accelerates) and
**forward** (the model pass) separately, and recording the RMSE against
the tasks' held-out query ratings.  Scores at a given ``(n, m)`` are a
pure function of ``(seed, user, sample, chunk)`` —
:func:`repro.core.task_chunk_rng` — so each grid point's RMSE is exactly
the RMSE a service degraded to that rung would show.

Timings interleave across the grid with min-of-repeats (machine-speed
drift lands on every budget equally); the headline
``latency_dynamic_range`` — slowest budget over fastest budget — is a
within-run ratio, so it survives baseline machines of different speeds
and is gated by ``tools/check_bench_regression.py``.

``benchmarks/bench_pareto_frontier.py`` writes the result as
``BENCH_pareto.json`` at the repo root; ``repro-experiments pareto``
prints the frontier table.  ``--smoke`` shrinks the grid to seconds.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from ..core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from ..core.predictor import assemble_user_chunks, build_serving_graph, task_chunk_rng
from ..core.sampling import NeighborhoodSampler
from ..data import make_cold_start_split, movielens_like
from ..eval.tasks import build_eval_tasks

__all__ = [
    "run_pareto_benchmark",
    "render_pareto_bench",
    "write_pareto_bench_json",
    "PARETO_BENCH_FILENAME",
]

PARETO_BENCH_FILENAME = "BENCH_pareto.json"


def _setup(smoke: bool):
    if smoke:
        dataset = movielens_like(num_users=60, num_items=50, seed=0,
                                 ratings_per_user=15.0)
        model_cfg = dict(num_blocks=1, num_heads=2, attr_dim=4, seed=0)
        max_tasks, train_steps = 6, 10
        grid = ((8, 8), (16, 16))
    else:
        dataset = movielens_like(num_users=150, num_items=100, seed=0,
                                 ratings_per_user=30.0)
        model_cfg = dict(num_blocks=2, num_heads=4, attr_dim=8, seed=0)
        max_tasks, train_steps = 12, 60
        grid = ((8, 8), (12, 12), (16, 16), (24, 24), (32, 32))
    split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
    tasks = build_eval_tasks(split, "user", min_query=2, seed=0,
                             max_tasks=max_tasks)
    model = HIRE(dataset, HIREConfig(**model_cfg))
    HIRETrainer(model, split,
                config=TrainerConfig(steps=train_steps, seed=0)).fit()
    return dataset, split, tasks, model, grid


def _score_grid_point(model, graph, sampler, tasks, candidate_users,
                      candidate_items, n: int, m: int, seed: int = 0,
                      reveal_fraction: float = 0.1):
    """Score every task at budget ``(n, m)``; returns per-phase seconds.

    Assembly and forward are timed separately so the frontier shows
    which phase the budget dial moves — assembly shrinks with both axes,
    the forward with the ``n × m`` cell count.
    """
    assemble_seconds = forward_seconds = 0.0
    errors = []
    for task in tasks:
        def rng_factory(start, _user=task.user):
            return task_chunk_rng(seed, _user, 0, start)

        start_t = time.perf_counter()
        chunks = assemble_user_chunks(
            graph, sampler, task.user, task.query_items, task.support_items,
            context_users=n, context_items=m,
            reveal_fraction=reveal_fraction,
            candidate_users=candidate_users,
            candidate_items=candidate_items,
            rng_factory=rng_factory)
        assemble_seconds += time.perf_counter() - start_t

        scores = np.empty(len(task.query_items), dtype=np.float64)
        start_t = time.perf_counter()
        for chunk in chunks:
            predicted = model.predict(chunk.context, row=chunk.user_row)
            scores[chunk.start:chunk.start + len(chunk)] = predicted[chunk.cols]
        forward_seconds += time.perf_counter() - start_t
        errors.append(scores - task.query_ratings)
    residual = np.concatenate(errors)
    rmse = float(np.sqrt(np.mean(residual ** 2)))
    return rmse, assemble_seconds, forward_seconds


def run_pareto_benchmark(smoke: bool = False) -> dict:
    """RMSE vs assembly+forward latency across the context-budget grid."""
    dataset, split, tasks, model, grid = _setup(smoke)
    graph, candidate_users, candidate_items = build_serving_graph(split, tasks)
    sampler = NeighborhoodSampler()
    repeats = 1 if smoke else 3

    # Warm-up (CSR build, BLAS init, plan caches) + determinism pin: the
    # same grid point scored twice must yield the exact same RMSE, or the
    # frontier would not transfer to a serving ladder rung.
    n0, m0 = grid[0]
    first = _score_grid_point(model, graph, sampler, tasks, candidate_users,
                              candidate_items, n0, m0)
    again = _score_grid_point(model, graph, sampler, tasks, candidate_users,
                              candidate_items, n0, m0)
    deterministic = first[0] == again[0]

    best: dict[tuple[int, int], tuple] = {}
    for _ in range(repeats):
        for n, m in grid:
            rmse, assemble_seconds, forward_seconds = _score_grid_point(
                model, graph, sampler, tasks, candidate_users,
                candidate_items, n, m)
            total = assemble_seconds + forward_seconds
            held = best.get((n, m))
            if held is None or total < held[3]:
                best[(n, m)] = (rmse, assemble_seconds, forward_seconds, total)

    num_queries = sum(len(task.query_items) for task in tasks)
    points = []
    for n, m in grid:
        rmse, assemble_seconds, forward_seconds, total = best[(n, m)]
        points.append({
            "context_users": n,
            "context_items": m,
            "rmse": rmse,
            "assemble_seconds": assemble_seconds,
            "forward_seconds": forward_seconds,
            "total_seconds": total,
            "latency_per_task_ms": total / len(tasks) * 1e3,
        })

    totals = [p["total_seconds"] for p in points]
    rmses = [p["rmse"] for p in points]
    return {
        "benchmark": "pareto_frontier",
        "smoke": smoke,
        "measurement": {
            "protocol": "interleaved-min-of-repeats",
            "repeats": repeats,
        },
        "config": {
            "num_tasks": len(tasks),
            "num_queries": num_queries,
            "num_users": dataset.num_users,
            "num_items": dataset.num_items,
            "grid": [list(point) for point in grid],
        },
        "points": points,
        "deterministic": deterministic,
        # Ratio headlines (machine-normalized): how much latency the
        # budget dial can shed end to end, and what that costs in RMSE
        # (rmse_cost_ratio = RMSE at the cheapest budget over RMSE at the
        # richest — recorded, not gated: on tiny synthetic data small
        # contexts occasionally win).
        "latency_dynamic_range": max(totals) / min(totals),
        "rmse_cost_ratio": rmses[0] / rmses[-1],
        "rmse_best": min(rmses),
        "rmse_worst": max(rmses),
    }


def render_pareto_bench(payload: dict) -> str:
    cfg = payload["config"]
    lines = [
        f"== context-budget pareto frontier ({cfg['num_tasks']} tasks, "
        f"{cfg['num_queries']} queries, {cfg['num_users']}x"
        f"{cfg['num_items']} graph) ==",
        f"{'budget':>8} {'rmse':>8} {'assemble':>10} {'forward':>10} "
        f"{'total':>10} {'ms/task':>9}",
    ]
    for point in payload["points"]:
        budget = f"{point['context_users']}x{point['context_items']}"
        lines.append(
            f"{budget:>8} {point['rmse']:8.4f} "
            f"{point['assemble_seconds'] * 1e3:8.1f}ms "
            f"{point['forward_seconds'] * 1e3:8.1f}ms "
            f"{point['total_seconds'] * 1e3:8.1f}ms "
            f"{point['latency_per_task_ms']:9.1f}")
    lines.append(
        f"latency dynamic range: {payload['latency_dynamic_range']:.2f}x  "
        f"rmse cost ratio: {payload['rmse_cost_ratio']:.3f}  "
        f"deterministic: {payload['deterministic']}")
    return "\n".join(lines)


def write_pareto_bench_json(payload: dict, repo_root: Path | None = None
                            ) -> Path:
    """Write the trajectory file ``BENCH_pareto.json`` at the repo root."""
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    path = repo_root / PARETO_BENCH_FILENAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
