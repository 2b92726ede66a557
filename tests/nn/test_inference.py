"""The graph-free inference engine: bitwise identity, caching, allocations.

The engine's contract is strict: every target row it computes through
:mod:`repro.nn.inference` must carry the *same bytes* as that row of the
``no_grad`` fused Tensor forward, at both dtypes, for every ablation — and,
after warmup, it must not allocate.  These tests pin all of it, plus the
plan cache's invalidation triggers (shape, ratings dtype, generation bumps
from registry hot swaps).
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
    """Every row of a context, run as a batch of one and stacked, carries
    the bytes of the same row of the Tensor forward and ``forward_many``."""
    with nn.dtype_policy(dtype):
        model = make_model(dataset, **flags)
        model.eval()
        ctx, ctx2 = make_contexts(graph)
        with nn.no_grad():
            ref = model.forward(ctx).data.copy()
            ref_many = model.forward_many([ctx, ctx2]).data.copy()
        for row in range(ctx.n):
            out = inference.forward_inference(model, ctx, rows=[row])
            assert out.tobytes() == ref[row:row + 1].tobytes()
            out_many = inference.forward_inference_many(
                model, [ctx, ctx2], rows=[row, row])
            assert out_many.tobytes() == ref_many[:, row].tobytes()


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
        engine_rows = [inference.forward_inference_many(
            model, contexts, rows=[row] * len(contexts)).copy()
            for row in range(7)]
    for index, solo in enumerate(solos):
        assert tensor_many[index].tobytes() == solo.tobytes()
        for row, engine in enumerate(engine_rows):
            assert engine[index].tobytes() == solo[row].tobytes()


def test_predict_routes_through_engine_and_escape_hatch(dataset, graph):
    """predict(row=...) takes the engine, predict() without a row the
    no_grad Tensor forward; both match the Tensor forward bit for bit."""
    model = make_model(dataset)
    ctx, ctx2 = make_contexts(graph)

    def engine_calls():
        stats = inference.cache_stats()
        return stats["hits"] + stats["misses"]

    before = engine_calls()
    full = model.predict(ctx)
    assert engine_calls() == before
    engine = model.predict(ctx, row=2)
    assert engine_calls() == before + 1
    model.eval()
    with nn.no_grad():
        tensor_path = model.forward(ctx).data.copy()
        tensor_many = model.forward_many([ctx, ctx2]).data.copy()
    assert full.tobytes() == tensor_path.tobytes()
    assert engine.tobytes() == tensor_path[2].tobytes()
    engine_many = inference.forward_inference_many(model, [ctx, ctx2],
                                                   rows=[2, 2])
    assert engine_many.tobytes() == tensor_many[:, 2].tobytes()
    # predict() copies out of the workspace: results must survive more calls.
    again = model.predict(ctx2, row=2)
    assert engine.tobytes() == model.predict(ctx, row=2).tobytes()
    assert again.tobytes() == model.predict(ctx2, row=2).tobytes()


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
    inference.forward_inference(model, ctx, rows=[0])
    after_first = inference.cache_stats()
    assert after_first["misses"] == before["misses"] + 1
    assert after_first["plans"] == before["plans"] + 1
    inference.forward_inference(model, ctx, rows=[1])
    after_second = inference.cache_stats()
    assert after_second["hits"] == after_first["hits"] + 1
    assert after_second["misses"] == after_first["misses"]

    # A new shape builds a second plan instead of reusing the first; it
    # grows the thread's workspace, so it replaces the first plan.
    rng = np.random.default_rng(5)
    wider = build_context(graph, np.arange(8), np.arange(9), rng,
                          reveal_fraction=0.3)
    inference.forward_inference(model, wider, rows=[0])
    after_wider = inference.cache_stats()
    assert after_wider["misses"] == after_second["misses"] + 1
    assert after_wider["plans"] == 1
    assert after_wider["workspace_bytes"] > 0


def test_ratings_dtype_change_rebuilds_plan(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    out64 = inference.forward_inference(model, ctx, rows=[1]).copy()
    cast = dataclasses.replace(ctx, ratings=ctx.ratings.astype(np.float32))
    before = inference.cache_stats()
    out32 = inference.forward_inference(model, cast, rows=[1])
    after = inference.cache_stats()
    assert after["misses"] == before["misses"] + 1
    # Same revealed integer levels -> same embeddings -> same scores.
    assert out64.tobytes() == out32.tobytes()


def test_bump_generation_invalidates_all_plans(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    inference.forward_inference(model, ctx, rows=[0])
    assert inference.cache_stats()["plans"] == 1
    inference.bump_generation()
    before = inference.cache_stats()
    inference.forward_inference(model, ctx, rows=[0])
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
    first = inference.forward_inference(model, ctx, rows=[2]).copy()
    state = {name: param.data * 1.5
             for name, param in model.named_parameters()}
    model.load_state_dict(state)
    before = inference.cache_stats()
    second = inference.forward_inference(model, ctx, rows=[2]).copy()
    after = inference.cache_stats()
    assert after["hits"] == before["hits"] + 1
    assert first.tobytes() != second.tobytes()
    with nn.no_grad():
        expected = model.forward(ctx).data
    assert second.tobytes() == expected[2:3].tobytes()


def test_zero_steady_state_allocations(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    # Warm up: builds the plans and touches every lazily-created metric.
    for _ in range(3):
        inference.forward_inference(model, ctx, rows=[0])
        inference.forward_inference_many(model, [ctx, ctx2], rows=[1, 2])
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(20):
        inference.forward_inference(model, ctx, rows=[0])
        inference.forward_inference_many(model, [ctx, ctx2], rows=[1, 2])
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
    """Padded packing is exact: every target row of a packed forward
    matches the unpadded batch-of-one forward bitwise, at both dtypes."""
    with nn.dtype_policy(dtype):
        model = make_model(dataset, **flags)
        model.eval()
        contexts = make_mixed_contexts(graph)
        for shift in range(2):
            rows = [(shift + i) % c.n for i, c in enumerate(contexts)]
            refs = [inference.forward_inference(model, c, rows=[r])[0].copy()
                    for c, r in zip(contexts, rows)]
            outputs, slots = inference.forward_inference_packed(
                model, contexts, 8, 8, rows=rows)
            for i, (context, ref) in enumerate(zip(contexts, refs)):
                out = outputs[slots[i]][:context.m]
                assert ref.tobytes() == out.tobytes()


def test_packed_exact_shapes_match_forward_many(dataset, graph):
    """When every context already fills the plan shape, a packed run is the
    one-group composition of the stacked one — same bytes, every row."""
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    for row in range(ctx.n):
        rows = [row, ctx.n - 1 - row]
        many = inference.forward_inference_many(model, [ctx, ctx2],
                                                rows=rows).copy()
        outputs, slots = inference.forward_inference_packed(
            model, [ctx, ctx2], ctx.n, ctx.m, rows=rows)
        assert slots == [0, 1]
        assert outputs.tobytes() == many.tobytes()


def test_packed_rejects_oversized_and_empty(dataset, graph):
    model = make_model(dataset)
    model.eval()
    ctx, _ = make_contexts(graph)
    with pytest.raises(ValueError):
        inference.forward_inference_packed(model, [], 8, 8, rows=[])
    with pytest.raises(ValueError):
        inference.forward_inference_packed(model, [ctx], ctx.n - 1, ctx.m,
                                           rows=[0])


def test_entry_points_require_rows(dataset, graph):
    """The engine computes target rows only: no entry point has a
    full-matrix mode to fall back to when ``rows`` is left out."""
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    with pytest.raises(TypeError):
        inference.forward_inference(model, ctx)
    with pytest.raises(TypeError):
        inference.forward_inference_many(model, [ctx, ctx2])
    with pytest.raises(TypeError):
        inference.forward_inference_packed(model, [ctx, ctx2], 8, 8)


def test_forward_many_rejects_mixed_shapes(dataset, graph):
    model = make_model(dataset)
    model.eval()
    contexts = make_mixed_contexts(graph)[:2]
    with pytest.raises(ValueError, match="equally-sized"):
        inference.forward_inference_many(model, contexts, rows=[0, 0])


def test_packed_zero_steady_state_allocations(dataset, graph):
    """The tracemalloc pin holds for the packed path too: once the plan and
    its pack program exist, repeated packed forwards allocate nothing."""
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    contexts = make_mixed_contexts(graph)
    rows = [0] * len(contexts)
    for _ in range(3):
        inference.forward_inference_packed(model, contexts, 8, 8, rows=rows)
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(20):
        inference.forward_inference_packed(model, contexts, 8, 8, rows=rows)
    gc.collect()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    growth = sum(stat.size_diff for stat in snap.compare_to(base, "filename")
                 if "repro" in (stat.traceback[0].filename or ""))
    assert growth < 1024, f"steady-state packed engine leaked {growth} bytes"


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


def test_many_and_packed_runs_share_one_plan(dataset, graph):
    """A stacked run and a packed run at the same (B, n, m) are one
    program: no second plan, no workspace growth, the same bytes."""
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    many = inference.forward_inference_many(model, [ctx, ctx2],
                                            rows=[1, 2]).copy()
    before = inference.cache_stats()
    packed, slots = inference.forward_inference_packed(
        model, [ctx, ctx2], ctx.n, ctx.m, rows=[1, 2])
    after = inference.cache_stats()
    assert after["plans"] == before["plans"] == 1
    assert after["workspace_bytes"] == before["workspace_bytes"]
    assert after["hits"] == before["hits"] + 1
    assert slots == [0, 1]
    assert packed.tobytes() == many.tobytes()


def test_row_plans_zero_steady_state_allocations(dataset, graph):
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    ctx, ctx2 = make_contexts(graph)
    contexts = make_mixed_contexts(graph)
    mixed_rows = [i % c.n for i, c in enumerate(contexts)]

    def run(index):
        inference.forward_inference(model, ctx, rows=[index % ctx.n])
        inference.forward_inference_many(model, [ctx, ctx2],
                                         rows=[index % ctx.n, 0])
        inference.forward_inference_packed(model, contexts, 8, 8,
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
        return (inference.forward_inference(model, ctx, rows=[5]).copy(),
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
        # Two forwards, each with K = 2 blocks (the last as the row tail).
        per_forward = 2 if step in ("mbu", "mbi", "mba") else 1
        assert totals[f"infer/forward/{step}"].count == 2 * per_forward


def arena_bytes():
    """The calling thread's workspace, as ``{(name, dtype): nbytes}``."""
    arenas = inference._CACHE.state.workspace._arenas
    return {key: arena.nbytes for key, arena in arenas.items()}


def test_one_workspace_per_thread(wide_dataset, wide_graph):
    """One thread runs B = 1 at 8×8, B = 8 at 16×16, B = 1 again at the
    default dtype, then B = 8 at 16×16 with the same model cast to the other
    dtype.  Every target row equals a run on a fresh thread's cache, and
    the thread holds each arena at the size the largest plan needs: at the
    default dtype that is the largest plan's footprint, not the sum over
    plans.  The cast plan's arenas are the 16×16 plan's, sized by
    ``itemsize``."""
    import threading

    model = make_model(wide_dataset)
    model.eval()
    rng = np.random.default_rng(23)

    def contexts(batch, size):
        return [build_context(wide_graph, rng.choice(60, size, replace=False),
                              rng.choice(50, size, replace=False), rng,
                              reveal_fraction=0.3) for _ in range(batch)]

    def fresh_run(batch_contexts, rows):
        result = []

        def target():
            out = inference.forward_inference_many(model, batch_contexts,
                                                   rows=rows)
            result.append((out.copy(), arena_bytes()))

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(60)
        return result[0]

    small, large = contexts(1, 8), contexts(8, 16)
    default = nn.get_default_dtype()
    other = np.dtype(np.float64 if default == np.float32 else np.float32)
    inference.clear_cache()
    expected = {}
    footprints = []
    fresh_arenas = []
    for dtype, batch_contexts in [(default, small), (default, large),
                                  (default, small), (other, large)]:
        if dtype == other:
            for param in model.parameters():
                param.data = param.data.astype(other)
        rows = [b % c.n for b, c in enumerate(batch_contexts)]
        reference, fresh = fresh_run(batch_contexts, rows)
        got = inference.forward_inference_many(model, batch_contexts,
                                               rows=rows)
        assert got.dtype == dtype
        assert got.tobytes() == reference.tobytes()
        for key, nbytes in fresh.items():
            expected[key] = max(expected.get(key, 0), nbytes)
        footprints.append(sum(fresh.values()))
        fresh_arenas.append(fresh)
        assert arena_bytes() == expected
        workspace = inference.cache_stats()["workspace_bytes"]
        assert workspace == sum(expected.values())
        if dtype == default:
            assert workspace == max(footprints)
    cast = {}
    for (name, dtype), nbytes in fresh_arenas[1].items():
        if dtype == default:
            dtype, nbytes = other, nbytes * other.itemsize // default.itemsize
        cast[(name, dtype)] = nbytes
    assert fresh_arenas[3] == cast
    inference.clear_cache()


def test_held_plan_survives_workspace_growth(dataset, graph):
    """A plan fetched through ``get_plan`` keeps the arenas it was built
    on: after a larger build grows the thread's workspace, a composition
    it compiles for the first time still matches a fresh packed run."""
    inference.clear_cache()
    model = make_model(dataset)
    model.eval()
    contexts = make_mixed_contexts(graph)[:2]
    rows = [1, 2]
    plan = inference.get_plan(model, 2, 8, 8, contexts[0].ratings.dtype)
    rng = np.random.default_rng(31)
    wide = [build_context(graph, np.arange(i, i + 12), np.arange(12), rng,
                          reveal_fraction=0.3) for i in range(4)]
    inference.forward_inference_many(model, wide, rows=[0] * 4)
    held = plan.run(contexts, rows).copy()
    fresh, slots = inference.forward_inference_packed(model, contexts, 8, 8,
                                                      rows=rows)
    for i, context in enumerate(contexts):
        assert held[i][:context.m].tobytes() == (
            fresh[slots[i]][:context.m].tobytes())
    inference.clear_cache()


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
        inference.forward_inference_many(model, contexts,
                                         rows=[0] * len(contexts))
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
    inference.forward_inference(model, ctx, rows=[0])
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
                    model, contexts[(index + step) % len(contexts)],
                    rows=[0])
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
