"""Microbenchmark of the graph-free inference engine (:mod:`repro.nn.inference`).

Times one HIRE forward at the paper config (n = m = 32 contexts, K = 3 HIM
blocks, 8 heads × 16 dims) three ways on the same model and context:

* **tensor** — the ``no_grad`` Tensor forward: the same kernels, but every
  op still builds a ``Tensor`` node and allocates its outputs;
* **engine** — the compiled :class:`~repro.nn.inference.InferencePlan`
  running ``out=`` kernels into a reused workspace (zero allocations after
  warmup);
* **engine batched** — the same plan family over a stacked batch of
  contexts, matching how :class:`repro.serve.PredictionService` scores
  same-shape micro-batches.

A fourth section times **padded packing** on mixed-shape traffic: contexts
of several nearby (n, m) shapes forwarded one-at-a-time through their own
plans (the exact-shape-only behavior) versus one padded stacked
:func:`~repro.nn.inference.forward_inference_packed` execution, with and
without the warm-entity :class:`~repro.nn.inference.EmbeddingStore`;
``pack_gain`` and the pad-waste ratio land in the payload.

Every timed engine output is asserted **bitwise identical** to the Tensor
path (packed real rows to the unpadded path), and the per-call allocation
count is measured with ``tracemalloc`` — the speedup is never bought with
a numerics change or hidden allocation.

``benchmarks/bench_infer_engine.py`` writes the result as
``BENCH_infer.json`` at the repo root; ``--smoke`` shrinks the config and
skips the JSON write.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from .. import nn
from ..core import HIRE, HIREConfig, build_context
from ..data import RatingGraph, movielens_like
from ..nn import inference

__all__ = [
    "run_infer_microbench",
    "write_infer_bench_json",
    "INFER_BENCH_FILENAME",
]

INFER_BENCH_FILENAME = "BENCH_infer.json"


def _setup(smoke: bool):
    if smoke:
        dataset = movielens_like(num_users=60, num_items=50, seed=0,
                                 ratings_per_user=15.0)
        model_cfg = dict(num_blocks=1, num_heads=2, attr_dim=4, seed=0)
        n = m = 8
        batch = 2
        repeats = 5
        mixed_shapes = [(8, 8), (6, 7), (7, 5), (5, 8)]
    else:
        dataset = movielens_like(num_users=150, num_items=100, seed=0,
                                 ratings_per_user=30.0)
        model_cfg = dict(num_blocks=3, num_heads=8, attr_dim=16, seed=0)
        n = m = 32
        batch = 8
        repeats = 30
        # The serving mixed-traffic regime: small nearby shapes sharing one
        # (12, 12) bucket.  At these sizes fragmented solo forwards pay
        # numpy dispatch per context, so one padded stacked execution wins;
        # at the paper's 32x32 the stacked intermediates blow the cache on
        # a single-core box and padding loses (see docs/nn_substrate.md).
        mixed_shapes = [(12, 12), (11, 12), (10, 11), (12, 10),
                        (9, 12), (11, 9)]
    graph = RatingGraph(dataset.ratings, dataset.num_users, dataset.num_items)
    rng = np.random.default_rng(0)
    contexts = [
        build_context(graph, rng.choice(dataset.num_users, n, replace=False),
                      rng.choice(dataset.num_items, m, replace=False), rng,
                      reveal_fraction=0.1)
        for _ in range(batch)
    ]
    # Mixed-shape traffic: every shape fits the (n, m) bucket, none matches
    # another exactly — the worst case for exact-shape-only stacking.
    mixed = [
        build_context(graph,
                      rng.choice(dataset.num_users, ni, replace=False),
                      rng.choice(dataset.num_items, mi, replace=False), rng,
                      reveal_fraction=0.1)
        for ni, mi in mixed_shapes
    ]
    model = HIRE(dataset, HIREConfig(**model_cfg))
    model.eval()
    return model, contexts, mixed, repeats


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tick)
    return best


def _allocations_per_call(fn, calls: int = 10) -> int:
    """Net traced bytes across ``calls`` steady-state invocations."""
    fn()  # warm-up inside the traced regime's setup
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(calls):
        fn()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    return sum(stat.size_diff for stat in snap.compare_to(base, "filename")
               if "repro" in (stat.traceback[0].filename or ""))


def run_infer_microbench(smoke: bool = False) -> dict:
    """Engine vs. ``no_grad`` Tensor forward on one model; returns stats."""
    model, contexts, mixed, repeats = _setup(smoke)
    context = contexts[0]
    pack_n = max(c.n for c in mixed)
    pack_m = max(c.m for c in mixed)

    def tensor_forward():
        with nn.no_grad():
            return model.forward(context).data

    def tensor_forward_many():
        with nn.no_grad():
            return model.forward_many(contexts).data

    def engine_forward():
        return inference.forward_inference(model, context)

    def engine_forward_many():
        return inference.forward_inference_many(model, contexts)

    def engine_forward_each_mixed():
        # Exact-shape-only serving of mixed traffic: every context forwards
        # alone through its own plan (the pre-packing behavior).
        for ctx in mixed:
            inference.forward_inference(model, ctx)

    def engine_forward_packed():
        return inference.forward_inference_packed(model, mixed, pack_n, pack_m)

    store = inference.EmbeddingStore(model)

    def engine_forward_packed_store():
        return inference.forward_inference_packed(model, mixed, pack_n, pack_m,
                                                  embed_store=store)

    # Warm up both paths (plan build, BLAS init) and pin bit-identity.
    ref, out = tensor_forward(), engine_forward()
    assert ref.tobytes() == out.tobytes(), "engine diverged from Tensor path"
    ref_many, out_many = tensor_forward_many(), engine_forward_many()
    assert ref_many.tobytes() == out_many.tobytes(), (
        "batched engine diverged from Tensor path")
    mixed_refs = [inference.forward_inference(model, c).copy() for c in mixed]
    for packed_forward in (engine_forward_packed, engine_forward_packed_store):
        outputs, slots = packed_forward()
        for index, (ctx, solo) in enumerate(zip(mixed, mixed_refs)):
            padded = outputs[slots[index]][:ctx.n, :ctx.m]
            assert padded.tobytes() == solo.tobytes(), (
                "packed engine diverged from the unpadded path")

    tensor_seconds = _best_of(tensor_forward, repeats)
    engine_seconds = _best_of(engine_forward, repeats)
    tensor_many_seconds = _best_of(tensor_forward_many, repeats)
    engine_many_seconds = _best_of(engine_forward_many, repeats)
    mixed_each_seconds = _best_of(engine_forward_each_mixed, repeats)
    mixed_packed_seconds = _best_of(engine_forward_packed, repeats)
    mixed_packed_store_seconds = _best_of(engine_forward_packed_store, repeats)
    engine_growth = _allocations_per_call(engine_forward)

    real_cells = sum(c.n * c.m for c in mixed)
    padded_cells = pack_n * pack_m * len(mixed)
    stats = inference.cache_stats()
    return {
        "benchmark": "infer_engine",
        "smoke": smoke,
        "config": {
            "n": context.n,
            "m": context.m,
            "batch": len(contexts),
            "num_blocks": model.config.num_blocks,
            "num_heads": model.config.num_heads,
            "attr_dim": model.config.attr_dim,
        },
        "tensor_forward_seconds": tensor_seconds,
        "engine_forward_seconds": engine_seconds,
        "tensor_forward_many_seconds": tensor_many_seconds,
        "engine_forward_many_seconds": engine_many_seconds,
        "speedup_single": tensor_seconds / engine_seconds,
        "speedup_batched": tensor_many_seconds / engine_many_seconds,
        "engine_steady_state_bytes": engine_growth,
        "bit_identical": True,
        "plan_cache": stats,
        "packing": {
            "mixed_shapes": [[c.n, c.m] for c in mixed],
            "bucket": [pack_n, pack_m],
            "each_seconds": mixed_each_seconds,
            "packed_seconds": mixed_packed_seconds,
            "packed_store_seconds": mixed_packed_store_seconds,
            "pack_gain": mixed_each_seconds / mixed_packed_seconds,
            "pack_gain_store": (mixed_each_seconds
                                / mixed_packed_store_seconds),
            "pad_waste": padded_cells / real_cells - 1.0,
            "embed_store": store.stats(),
        },
    }


def write_infer_bench_json(payload: dict, repo_root: Path | None = None) -> Path:
    """Write the trajectory file ``BENCH_infer.json`` at the repo root."""
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    path = repo_root / INFER_BENCH_FILENAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
