"""The graph-free inference engine: bitwise identity, caching, allocations.

The engine's contract is strict: running a HIRE forward through
:mod:`repro.nn.inference` must produce the *same bytes* as the ``no_grad``
fused Tensor path, at both dtypes, for every ablation — and, after warmup,
it must not allocate.  These tests pin all of it, plus the plan cache's
invalidation triggers (shape, ratings dtype, generation bumps from registry
hot swaps).
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core import build_context
from repro.core.model import HIRE, HIREConfig
from repro.data import RatingGraph, movielens_like
from repro.nn import inference
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def dataset():
    return movielens_like(num_users=50, num_items=40, seed=3)


@pytest.fixture(scope="module")
def graph(dataset):
    return RatingGraph(dataset.ratings, dataset.num_users, dataset.num_items)


def make_contexts(graph, n=8, m=6):
    rng = np.random.default_rng(11)
    first = build_context(graph, np.arange(n), np.arange(m), rng,
                          reveal_fraction=0.3)
    second = build_context(graph, np.arange(5, 5 + n), np.arange(3, 3 + m),
                           rng, reveal_fraction=0.2)
    return first, second


def make_model(dataset, **flags):
    return HIRE(dataset, HIREConfig(**{"num_blocks": 2, "num_heads": 2,
                                       "attr_dim": 4, **flags}))


# The paper's head shape: MBA runs 8 heads of width 2 over d = 16.
PAPER_HEADS = {"num_heads": 8, "attr_dim": 16}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("flags", [
    {},
    {"learned_mask_token": False},
    {"use_user": False},
    {"use_item": False},
    {"use_attr": False},
    {"use_layer_norm": False},
    {"use_residual": False},
    PAPER_HEADS,
])
def test_engine_bitwise_identical_to_tensor_path(dataset, graph, dtype, flags):
    with nn.dtype_policy(dtype):
        model = make_model(dataset, **flags)
        model.eval()
        ctx, ctx2 = make_contexts(graph)
        with nn.no_grad():
            ref = model.forward(ctx).data.copy()
            ref_many = model.forward_many([ctx, ctx2]).data.copy()
        out = inference.forward_inference(model, ctx).copy()
        out_many = inference.forward_inference_many(model, [ctx, ctx2]).copy()
    assert ref.tobytes() == out.tobytes()
    assert ref_many.tobytes() == out_many.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("flags", [{}, PAPER_HEADS])
def test_batched_slices_equal_one_context_forward(dataset, graph, dtype,
                                                  flags):
    """Every slice of a stacked forward — Tensor or engine — carries the
    bytes of that context's own one-context Tensor forward."""
    with nn.dtype_policy(dtype):
        model = make_model(dataset, **flags)
        model.eval()
        rng = np.random.default_rng(7)
        contexts = [build_context(graph, rng.choice(50, 7, replace=False),
                                  rng.choice(40, 5, replace=False), rng,
                                  reveal_fraction=0.3) for _ in range(3)]
        with nn.no_grad():
            solos = [model.forward(c).data.copy() for c in contexts]
            tensor_many = model.forward_many(contexts).data.copy()
        engine_many = inference.forward_inference_many(model, contexts).copy()
    for index, solo in enumerate(solos):
        assert tensor_many[index].tobytes() == solo.tobytes()
        assert engine_many[index].tobytes() == solo.tobytes()


def test_predict_routes_through_engine_and_escape_hatch(dataset, graph):
    """predict() takes the engine and matches the no_grad Tensor forward
    bit for bit."""
    model = make_model(dataset)
    ctx, ctx2 = make_contexts(graph)
    engine = model.predict(ctx)
    model.eval()
    with nn.no_grad():
        tensor_path = model.forward(ctx).data.copy()
        tensor_many = model.forward_many([ctx, ctx2]).data.copy()
    assert engine.tobytes() == tensor_path.tobytes()
    engine_many = inference.forward_inference_many(model, [ctx, ctx2])
    assert engine_many.tobytes() == tensor_many.tobytes()
    # predict() copies out of the workspace: results must survive more calls.
    again = model.predict(ctx2)
    assert engine.tobytes() == model.predict(ctx).tobytes()
    assert again.tobytes() == model.predict(ctx2).tobytes()


def test_capture_attention_falls_back(dataset):
    model = make_model(dataset)
    assert inference.engine_supported(model)
    model.capture_attention(True)
    assert not inference.engine_supported(model)
    model.capture_attention(False)
    assert inference.engine_supported(model)


def test_plan_cache_hits_and_shape_invalidation(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    before = inference.cache_stats()
    inference.forward_inference(model, ctx)
    after_first = inference.cache_stats()
    assert after_first["misses"] == before["misses"] + 1
    assert after_first["plans"] == before["plans"] + 1
    inference.forward_inference(model, ctx)
    after_second = inference.cache_stats()
    assert after_second["hits"] == after_first["hits"] + 1
    assert after_second["misses"] == after_first["misses"]

    # A new shape builds a second plan instead of reusing the first.
    rng = np.random.default_rng(5)
    wider = build_context(graph, np.arange(8), np.arange(9), rng,
                          reveal_fraction=0.3)
    inference.forward_inference(model, wider)
    after_wider = inference.cache_stats()
    assert after_wider["misses"] == after_second["misses"] + 1
    assert after_wider["plans"] == after_second["plans"] + 1
    assert after_wider["workspace_bytes"] > 0


def test_ratings_dtype_change_rebuilds_plan(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    out64 = inference.forward_inference(model, ctx).copy()
    cast = dataclasses.replace(ctx, ratings=ctx.ratings.astype(np.float32))
    before = inference.cache_stats()
    out32 = inference.forward_inference(model, cast)
    after = inference.cache_stats()
    assert after["misses"] == before["misses"] + 1
    # Same revealed integer levels -> same embeddings -> same scores.
    assert out64.tobytes() == out32.tobytes()


def test_bump_generation_invalidates_all_plans(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    inference.forward_inference(model, ctx)
    assert inference.cache_stats()["plans"] == 1
    inference.bump_generation()
    before = inference.cache_stats()
    inference.forward_inference(model, ctx)
    after = inference.cache_stats()
    assert after["misses"] == before["misses"] + 1


def test_registry_hot_swap_bumps_generation(dataset):
    registry = ModelRegistry(dataset)
    gen = inference.generation()
    registry.add("a", make_model(dataset))
    assert inference.generation() > gen
    gen = inference.generation()
    registry.add("b", make_model(dataset), activate=False)
    registry.activate("b")
    assert inference.generation() > gen
    gen = inference.generation()
    registry.activate("a")
    registry.unregister("b")
    assert inference.generation() > gen


def test_weight_updates_flow_without_rebuild(dataset, graph):
    """Plans read parameters through ``.data`` at run time, so a
    ``load_state_dict`` hot update changes scores without a cache miss."""
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    first = inference.forward_inference(model, ctx).copy()
    state = {name: param.data * 1.5
             for name, param in model.named_parameters()}
    model.load_state_dict(state)
    before = inference.cache_stats()
    second = inference.forward_inference(model, ctx).copy()
    after = inference.cache_stats()
    assert after["hits"] == before["hits"] + 1
    assert first.tobytes() != second.tobytes()
    with nn.no_grad():
        expected = model.forward(ctx).data
    assert second.tobytes() == expected.tobytes()


def test_zero_steady_state_allocations(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    # Warm up: builds the plans and touches every lazily-created metric.
    for _ in range(3):
        inference.forward_inference(model, ctx)
        inference.forward_inference_many(model, [ctx, ctx2])
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(20):
        inference.forward_inference(model, ctx)
        inference.forward_inference_many(model, [ctx, ctx2])
    gc.collect()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    growth = sum(stat.size_diff for stat in snap.compare_to(base, "filename")
                 if "repro" in (stat.traceback[0].filename or ""))
    # 40 forwards through a steady-state engine: no per-call ndarray may
    # survive (the 1 KiB allowance covers interned ints and counter churn).
    assert growth < 1024, f"steady-state engine leaked {growth} bytes"


def test_cache_stats_shape():
    stats = inference.cache_stats()
    assert set(stats) == {"plans", "generation", "workspace_bytes",
                          "hits", "misses"}


# ---------------------------------------------------------------------- #
# Padded packing
# ---------------------------------------------------------------------- #
def make_mixed_contexts(graph):
    """Contexts of several (n, m) shapes, all fitting a (8, 8) bucket."""
    rng = np.random.default_rng(29)
    shapes = [(8, 6), (6, 5), (8, 6), (5, 8), (7, 4), (4, 6)]
    contexts = []
    for index, (n, m) in enumerate(shapes):
        contexts.append(build_context(
            graph, np.arange(index, index + n), np.arange(index, index + m),
            rng, reveal_fraction=0.3))
    return contexts


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("flags", [
    {},
    {"learned_mask_token": False},
    {"use_user": False},
    {"use_item": False},
    {"use_attr": False},
    {"use_layer_norm": False},
    {"use_residual": False},
    PAPER_HEADS,
])
def test_packed_identical_to_unpadded(dataset, graph, dtype, flags):
    """Padded packing is exact: every real row of a packed forward matches
    the solo unpadded forward — bitwise at float64, within the documented
    float32 tolerance (see docs/nn_substrate.md; empirically bitwise on
    this box at float32 too)."""
    with nn.dtype_policy(dtype):
        model = make_model(dataset, **flags)
        model.eval()
        contexts = make_mixed_contexts(graph)
        refs = [inference.forward_inference(model, c).copy() for c in contexts]
        outputs, slots = inference.forward_inference_packed(
            model, contexts, 8, 8)
        got = [outputs[slots[i]][:c.n, :c.m].copy()
               for i, c in enumerate(contexts)]
    for ref, out in zip(refs, got):
        if dtype is np.float64:
            assert ref.tobytes() == out.tobytes()
        else:
            np.testing.assert_allclose(out, ref, rtol=2e-6, atol=1e-6)


def test_packed_exact_shapes_match_forward_many(dataset, graph):
    """When every context already fills the plan shape, packing degrades to
    the plain stacked forward — same bytes."""
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    many = inference.forward_inference_many(model, [ctx, ctx2]).copy()
    outputs, slots = inference.forward_inference_packed(
        model, [ctx, ctx2], ctx.n, ctx.m)
    assert slots == [0, 1]
    assert outputs.tobytes() == many.tobytes()


def test_packed_rejects_oversized_and_empty(dataset, graph):
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    with pytest.raises(ValueError):
        inference.forward_inference_packed(model, [], 8, 8)
    with pytest.raises(ValueError):
        inference.forward_inference_packed(model, [ctx], ctx.n - 1, ctx.m)


def test_packed_zero_steady_state_allocations(dataset, graph):
    """The tracemalloc pin holds for the packed path too: once the plan and
    its pack program exist, repeated packed forwards allocate nothing."""
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    contexts = make_mixed_contexts(graph)
    store = inference.EmbeddingStore(model)
    for _ in range(3):
        inference.forward_inference_packed(model, contexts, 8, 8,
                                           embed_store=store)
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(20):
        inference.forward_inference_packed(model, contexts, 8, 8,
                                           embed_store=store)
    gc.collect()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    growth = sum(stat.size_diff for stat in snap.compare_to(base, "filename")
                 if "repro" in (stat.traceback[0].filename or ""))
    assert growth < 1024, f"steady-state packed engine leaked {growth} bytes"


# ---------------------------------------------------------------------- #
# Warm-entity embedding store
# ---------------------------------------------------------------------- #
class TestEmbeddingStore:
    def test_store_backed_scores_are_bitwise_identical(self, dataset, graph):
        model = make_model(dataset)
        model.eval()
        ctx, ctx2 = make_contexts(graph)
        plain = inference.forward_inference(model, ctx).copy()
        plain_many = inference.forward_inference_many(model, [ctx, ctx2]).copy()
        store = inference.EmbeddingStore(model)
        warm = inference.forward_inference(model, ctx, embed_store=store).copy()
        warm_many = inference.forward_inference_many(
            model, [ctx, ctx2], embed_store=store).copy()
        assert plain.tobytes() == warm.tobytes()
        assert plain_many.tobytes() == warm_many.tobytes()

    def test_hits_and_misses_accumulate(self, dataset, graph):
        model = make_model(dataset)
        model.eval()
        ctx, _ = make_contexts(graph)
        store = inference.EmbeddingStore(model)
        inference.forward_inference(model, ctx, embed_store=store)
        first = store.stats()
        assert first["misses"] > 0
        inference.forward_inference(model, ctx, embed_store=store)
        second = store.stats()
        assert second["misses"] == first["misses"]  # all rows warm now
        assert second["hits"] > first["hits"]

    def test_generation_bump_invalidates(self, dataset):
        model = make_model(dataset)
        store = inference.EmbeddingStore(model)
        assert store.valid_for(model)
        inference.bump_generation()
        assert not store.valid_for(model)
        assert not store.valid_for(make_model(dataset))  # wrong model too

    def test_registry_hot_swap_invalidates(self, dataset):
        model = make_model(dataset)
        store = inference.EmbeddingStore(model)
        registry = ModelRegistry(dataset)
        registry.add("a", make_model(dataset))  # bumps the generation
        assert not store.valid_for(model)

    def test_invalidate_entities_refills_only_touched_rows(self, dataset,
                                                           graph):
        """Per-entity invalidation: the swept rows go back to misses, every
        other row keeps serving hits, and scores stay bitwise identical."""
        model = make_model(dataset)
        model.eval()
        ctx, _ = make_contexts(graph)
        plain = inference.forward_inference(model, ctx).copy()
        store = inference.EmbeddingStore(model)
        inference.forward_inference(model, ctx, embed_store=store)
        warm_users = np.flatnonzero(store._user_valid)
        warm_items = np.flatnonzero(store._item_valid)
        assert warm_users.size > 1 and warm_items.size > 1
        store.invalidate_entities(warm_users[:1], warm_items[:1])
        assert not store._user_valid[warm_users[0]]
        assert not store._item_valid[warm_items[0]]
        assert store._user_valid[warm_users[1:]].all()
        assert store._item_valid[warm_items[1:]].all()
        baseline = store.stats()
        out = inference.forward_inference(model, ctx, embed_store=store).copy()
        after = store.stats()
        assert out.tobytes() == plain.tobytes()
        # Only the swept rows were rebuilt; the rest were warm hits.
        assert after["misses"] > baseline["misses"]
        assert after["hits"] > baseline["hits"]

    def test_invalidate_entities_accepts_empty(self, dataset):
        store = inference.EmbeddingStore(make_model(dataset))
        store.invalidate_entities(np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64))

    def test_stale_rows_are_not_reused_after_weight_update(self, dataset, graph):
        """A store outliving a weight hot-update must be discarded by the
        caller; ``valid_for`` only tracks generation bumps, so registry-less
        updates are the caller's responsibility — pin the recipe."""
        model = make_model(dataset)
        model.eval()
        ctx, _ = make_contexts(graph)
        store = inference.EmbeddingStore(model)
        inference.forward_inference(model, ctx, embed_store=store)
        state = {name: param.data * 2.0
                 for name, param in model.named_parameters()}
        model.load_state_dict(state)
        fresh = inference.EmbeddingStore(model)
        out = inference.forward_inference(model, ctx, embed_store=fresh).copy()
        expected = inference.forward_inference(model, ctx).copy()
        assert out.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------- #
# Target-row plans
# ---------------------------------------------------------------------- #
ROW_FLAGS = [
    {},
    {"learned_mask_token": False},
    {"use_user": False},
    {"use_item": False},
    {"use_attr": False},
    {"use_user": False, "use_item": False},
    {"use_item": False, "use_attr": False},
    {"use_layer_norm": False},
    {"use_residual": False},
    PAPER_HEADS,
]
ROW_SHAPES = [(16, 16), (12, 12), (7, 5), (5, 8)]


@pytest.fixture(scope="module")
def wide_dataset():
    return movielens_like(num_users=60, num_items=50, seed=3)


@pytest.fixture(scope="module")
def wide_graph(wide_dataset):
    d = wide_dataset
    return RatingGraph(d.ratings, d.num_users, d.num_items)


def tensor_rows(model, contexts):
    with nn.no_grad():
        return [model.forward(c).data.copy() for c in contexts]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("num_blocks", [1, 3])
@pytest.mark.parametrize("flags", ROW_FLAGS)
def test_row_tail_bitwise_identical_to_tensor_rows(wide_dataset, wide_graph,
                                                   dtype, num_blocks, flags):
    """Every target row the tail computes — single-context and stacked,
    for every row of every context — carries the bytes of that row of the
    context's own one-context Tensor ``HIRE.forward``."""
    with nn.dtype_policy(dtype):
        model = make_model(wide_dataset, num_blocks=num_blocks, **flags)
        model.eval()
        rng = np.random.default_rng(13)
        for n, m in ROW_SHAPES:
            contexts = [build_context(
                wide_graph, rng.choice(60, n, replace=False),
                rng.choice(50, m, replace=False), rng, reveal_fraction=0.3)
                for _ in range(8)]
            refs = tensor_rows(model, contexts)
            for batch in (1, 3, 8):
                for shift in range(n):
                    rows = [(shift + b) % n for b in range(batch)]
                    if batch == 1:
                        got = inference.forward_inference(
                            model, contexts[0], rows=rows)
                    else:
                        got = inference.forward_inference_many(
                            model, contexts[:batch], rows=rows)
                    assert got.shape == (batch, m)
                    for b, row in enumerate(rows):
                        assert got[b].tobytes() == refs[b][row].tobytes(), (
                            n, m, batch, b, row)


def test_row_tail_single_row_and_single_column_contexts(dataset, graph):
    """n == 1 (the only row is the target) and m == 1 (a one-row output
    projection operand) stay bitwise too."""
    model = make_model(dataset)
    model.eval()
    rng = np.random.default_rng(17)
    for n, m in [(1, 4), (4, 1), (2, 1), (1, 1)]:
        contexts = [build_context(graph, rng.choice(50, n, replace=False),
                                  rng.choice(40, m, replace=False), rng,
                                  reveal_fraction=0.3) for _ in range(2)]
        refs = tensor_rows(model, contexts)
        for row in range(n):
            solo = inference.forward_inference(model, contexts[0],
                                               rows=[row])
            assert solo[0].tobytes() == refs[0][row].tobytes()
            many = inference.forward_inference_many(model, contexts,
                                                    rows=[row, row])
            for b in range(2):
                assert many[b].tobytes() == refs[b][row].tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("flags", ROW_FLAGS)
def test_packed_row_tail_bitwise_identical(dataset, graph, dtype, flags):
    """Packed row mode on the mixed-shape set: each context's target row
    equals its one-context Tensor forward row, for every row."""
    with nn.dtype_policy(dtype):
        model = make_model(dataset, **flags)
        model.eval()
        contexts = make_mixed_contexts(graph)
        refs = tensor_rows(model, contexts)
        for shift in range(8):
            rows = [(shift + i) % c.n for i, c in enumerate(contexts)]
            outputs, slots = inference.forward_inference_packed(
                model, contexts, 8, 8, rows=rows)
            assert outputs.shape == (len(contexts), 8)
            for i, context in enumerate(contexts):
                got = outputs[slots[i]][:context.m]
                assert got.tobytes() == refs[i][rows[i]].tobytes()


def test_row_tail_rejects_bad_rows(dataset, graph):
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    with pytest.raises(ValueError, match="target row"):
        inference.forward_inference(model, ctx, rows=[ctx.n])
    with pytest.raises(ValueError, match="target row"):
        inference.forward_inference_many(model, [ctx, ctx2], rows=[0, -1])
    with pytest.raises(ValueError, match="target rows"):
        inference.forward_inference_many(model, [ctx, ctx2], rows=[0])
    contexts = make_mixed_contexts(graph)
    with pytest.raises(ValueError, match="target row"):
        inference.forward_inference_packed(
            model, contexts, 8, 8, rows=[c.n for c in contexts])
    with pytest.raises(ValueError, match="target rows"):
        inference.forward_inference_packed(model, contexts, 8, 8, rows=[0])


def test_row_and_full_runs_share_one_plan(dataset, graph):
    """Row mode is a tail of the same plan: no second plan, no workspace
    growth, and a full run afterwards still returns the full matrix."""
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    full = inference.forward_inference_many(model, [ctx, ctx2]).copy()
    before = inference.cache_stats()
    rows = inference.forward_inference_many(model, [ctx, ctx2],
                                            rows=[1, 2]).copy()
    after = inference.cache_stats()
    assert after["plans"] == before["plans"]
    assert after["workspace_bytes"] == before["workspace_bytes"]
    assert after["hits"] == before["hits"] + 1
    assert rows.tobytes() == np.stack([full[0, 1], full[1, 2]]).tobytes()
    again = inference.forward_inference_many(model, [ctx, ctx2])
    assert again.tobytes() == full.tobytes()


def test_row_plans_zero_steady_state_allocations(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    contexts = make_mixed_contexts(graph)
    store = inference.EmbeddingStore(model)
    mixed_rows = [i % c.n for i, c in enumerate(contexts)]

    def run(index):
        inference.forward_inference(model, ctx, rows=[index % ctx.n])
        inference.forward_inference_many(model, [ctx, ctx2],
                                         rows=[index % ctx.n, 0])
        inference.forward_inference_packed(model, contexts, 8, 8,
                                           embed_store=store,
                                           rows=mixed_rows)

    for index in range(3):
        run(index)
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for index in range(20):
        run(index)
    gc.collect()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    growth = sum(stat.size_diff for stat in snap.compare_to(base, "filename")
                 if "repro" in (stat.traceback[0].filename or ""))
    assert growth < 1024, f"steady-state row plans leaked {growth} bytes"


def test_engine_step_spans_are_passive(dataset, graph):
    """Per-step spans stay no-ops with profiling off, record every layer
    kind with it on, and never change an output byte."""
    from repro import obs

    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)

    def outputs():
        return (inference.forward_inference(model, ctx).copy(),
                inference.forward_inference_many(model, [ctx, ctx2],
                                                 rows=[0, 3]).copy())

    obs.reset_spans()
    plain = outputs()
    assert obs.span_totals() == {}
    with obs.profiling(True):
        profiled = outputs()
    totals = obs.span_totals()
    obs.reset_spans()
    for a, b in zip(plain, profiled):
        assert a.tobytes() == b.tobytes()
    for step in ("encode", "mbu", "mbi", "mba", "decode"):
        # Two forwards, full and row tail, each with K = 2 blocks.
        per_forward = 2 if step in ("mbu", "mbi", "mba") else 1
        assert totals[f"infer/forward/{step}"].count == 2 * per_forward


def test_workspace_gauge_sums_live_threads(dataset, graph):
    """``infer.workspace_bytes`` is the sum over every live thread's plan
    cache, and a thread's plans drop out of it when the thread exits."""
    import threading

    from repro.obs import metrics

    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    inference.clear_cache()

    def gauge():
        return metrics.get_registry().snapshot()[
            "infer.workspace_bytes"]["value"]

    baseline = gauge()
    built = [threading.Event(), threading.Event()]
    release = [threading.Event(), threading.Event()]
    held = [0, 0]

    def worker(index, contexts):
        inference.forward_inference_many(model, contexts)
        held[index] = inference.cache_stats()["workspace_bytes"]
        built[index].set()
        release[index].wait(30)

    threads = [threading.Thread(target=worker, args=(0, [ctx])),
               threading.Thread(target=worker, args=(1, [ctx, ctx2]))]
    for thread in threads:
        thread.start()
    try:
        for event in built:
            assert event.wait(30)
        assert held[0] > 0 and held[1] > held[0]
        assert gauge() == baseline + held[0] + held[1]
        release[0].set()
        threads[0].join(30)
        assert not threads[0].is_alive()
        assert gauge() == baseline + held[1]
    finally:
        for event in release:
            event.set()
        for thread in threads:
            thread.join(30)
    assert gauge() == baseline
    # This thread's own plans count as well, and clear_cache drops them.
    inference.forward_inference(model, ctx)
    assert gauge() == baseline + inference.cache_stats()["workspace_bytes"]
    inference.clear_cache()
    assert gauge() == baseline


def test_workspace_gauge_settles_under_thread_churn(dataset, graph):
    """More threads than cores build, evict and drop plans while others
    exit; once all have exited the gauge holds exactly the live total."""
    import sys
    import threading

    from repro.obs import metrics

    model = make_model(dataset)
    model.eval()
    rng = np.random.default_rng(3)
    contexts = [build_context(graph, rng.choice(50, n, replace=False),
                              rng.choice(40, m, replace=False), rng,
                              reveal_fraction=0.3)
                for n, m in [(4, 3), (5, 4), (6, 5)]]
    inference.clear_cache()
    baseline = metrics.get_registry().snapshot()[
        "infer.workspace_bytes"]["value"]
    errors = []

    def worker(index):
        try:
            for step in range(6):
                inference.forward_inference(
                    model, contexts[(index + step) % len(contexts)])
                if step in (1, 3):  # exits still holding plans
                    inference.clear_cache()
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert metrics.get_registry().snapshot()[
        "infer.workspace_bytes"]["value"] == baseline
