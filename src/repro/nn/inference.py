"""Graph-free inference engine: shape-keyed execution plans with workspace reuse.

The serving hot path does not need autograd: under ``no_grad`` every op still
pays ``Tensor._from_op`` wrapper construction, a fresh output allocation per
node, and head-split copies per attention call.  This module compiles the
HIRE forward (encoder → K× [MBU, MBI, MBA] → decoder) into an
:class:`InferencePlan` — a flat list of raw-ndarray kernel invocations
(``linear_into`` / ``layer_norm_into`` / ``mha_qkv_into`` / … from
:mod:`repro.nn.functional`) whose every intermediate is a view into a
preallocated :class:`Workspace` arena.  After the first (warmup) call at a
given (model, batch, n, m, dtype) key, repeated calls perform **zero** new
ndarray allocations and are bitwise identical to the ``no_grad`` Tensor path,
whose autograd nodes run the same kernels.

Plans are cached per thread in a small LRU keyed by
``(id(model), lead_shape, n, m)`` and are invalidated by a module-wide
generation counter which :class:`repro.serve.ModelRegistry` bumps on every
hot swap (``add`` / ``activate`` / ``unregister``).  The engine only covers
the forward; gradient work and ``capture_attention`` take the Tensor path
(see :func:`engine_supported`).

Beyond exact-shape batching (:func:`forward_inference_many`), the engine
packs *mixed-shape* contexts into one padded plan execution
(:func:`forward_inference_packed`): contexts smaller than the plan's
``(n, m)`` are padded with zero rows/columns, the FLOP-heavy linears, layer
norms and the per-cell MBA attention run full-padded in one batched call,
and the MBU/MBI attention cores plus the decoder GEMM run per shape-group
on sliced views of the padded arenas — which keeps every real row's scores
bitwise identical to an unpadded forward (the reduction lengths the
floating-point sums see never change).  See docs/nn_substrate.md ("Padded
packing").  An :class:`EmbeddingStore` additionally caches the encoder's
per-entity attribute rows across requests, keyed to the plan generation.

A prediction reads one user row of each context's output, so every entry
point also takes ``rows=`` (one target row per context): the plan's
target-row tail then runs the last HIM block for those rows only and
returns ``(B, m)`` — bitwise equal to the same rows of the full output.
See docs/nn_substrate.md ("Target-row plans").

Observability: every run is wrapped in an ``infer/forward`` span with one
child span per step kind (``encode``, ``mbu``, ``mbi``, ``mba``,
``decode``; no-ops unless profiling is on), and the process metrics
registry tracks ``infer.plan_cache.hit`` / ``infer.plan_cache.miss`` and
``infer.embed_store.hit`` / ``infer.embed_store.miss`` counters plus an
``infer.workspace_bytes`` gauge summed over every live thread's plans.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from math import prod

import numpy as np

from . import functional as F
# Submodule imports (not ``repro.obs`` itself): the obs package pulls in
# ophooks → repro.nn.functional at import time, so importing the package here
# would be circular; spans/metrics import nothing from repro.nn.
from ..obs import metrics as _metrics
from ..obs import spans as _spans

__all__ = [
    "Workspace",
    "InferencePlan",
    "EmbeddingStore",
    "forward_inference",
    "forward_inference_many",
    "forward_inference_packed",
    "engine_supported",
    "get_plan",
    "bump_generation",
    "generation",
    "cache_stats",
    "clear_cache",
]


class Workspace:
    """Named flat arenas of preallocated memory, carved into shaped views.

    Buffers that are never alive at the same time (e.g. the layer-norm
    square scratch and the attention score matrix) share an arena sized to
    the larger of the two, so the steady-state footprint stays close to the
    true high-water mark of the forward.
    """

    def __init__(self, dtype: np.dtype):
        self.dtype = np.dtype(dtype)
        self._arenas: dict[str, np.ndarray] = {}

    def reserve(self, name: str, count: int, dtype=None) -> None:
        """Grow arena ``name`` to at least ``count`` elements.

        Arenas start zeroed (not ``np.empty``): packed executions read
        whole padded buffers through elementwise ops, and zero padding
        keeps them finite — uninitialised ±inf garbage would turn a
        padded layer-norm row into ``inf - inf`` NaN warnings.
        """
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        existing = self._arenas.get(name)
        if existing is None or existing.size < count:
            self._arenas[name] = np.zeros(max(count, 1), dtype=dtype)

    def view(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A contiguous view of arena ``name`` with the requested shape."""
        count = prod(shape) if shape else 1
        arena = self._arenas[name]
        if count > arena.size:
            raise ValueError(
                f"arena {name!r} holds {arena.size} elements, need {count}")
        return arena[:count].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arenas.values())


class EmbeddingStore:
    """Warm-entity cache of the encoder's per-entity attribute rows.

    ``x_u`` (and ``x_i``) are pure functions of an entity's static attribute
    row and the encoder's embedding tables, so recomputing them per request
    is wasted work.  The store holds one precomputed row per entity —
    ``user_rows[u] = concat_k user_transforms[k][attributes[u, k]]`` — filled
    lazily on first sight and reused across requests; the plan encode then
    gathers whole rows with a single ``np.take`` per side.  Rows are built
    by the same gather ops the direct encode performs (no arithmetic), so
    store-backed scores are bitwise identical to store-free ones.

    Validity is keyed to ``(model, generation())``: a
    :class:`repro.serve.ModelRegistry` hot swap bumps the generation and
    retires the store (see :meth:`valid_for`).  Writes are idempotent —
    concurrent workers may fill the same missing row with identical bytes,
    and a row is only marked valid after its bytes land — so the store is
    shared across worker threads without a lock; the ``hits``/``misses``
    tallies are best-effort under concurrency.
    """

    def __init__(self, model):
        enc = model.encoder
        self.model = model
        self.generation = generation()
        self._enc = enc
        self._f = enc.attr_dim
        dtype = model.decoder.weight.data.dtype
        num_users = enc._user_attributes.shape[0]
        num_items = enc._item_attributes.shape[0]
        self.user_rows = np.zeros((num_users, enc.num_user_attrs * enc.attr_dim),
                                  dtype=dtype)
        self.item_rows = np.zeros((num_items, enc.num_item_attrs * enc.attr_dim),
                                  dtype=dtype)
        self._user_valid = np.zeros(num_users, dtype=bool)
        self._item_valid = np.zeros(num_items, dtype=bool)
        self.hits = 0
        self.misses = 0

    def valid_for(self, model) -> bool:
        """Whether the store may serve ``model`` at the current generation."""
        return self.model is model and self.generation == generation()

    def ensure(self, users: np.ndarray, items: np.ndarray) -> None:
        """Fill any missing user/item rows so gathers can proceed."""
        registry = _metrics.get_registry()
        self._ensure_side(users, self._user_valid, self.user_rows,
                          self._enc._user_attributes,
                          self._enc.user_transforms, registry)
        self._ensure_side(items, self._item_valid, self.item_rows,
                          self._enc._item_attributes,
                          self._enc.item_transforms, registry)

    def _ensure_side(self, ids, valid, rows, attributes, transforms,
                     registry) -> None:
        if rows.shape[1] == 0:
            return
        present = valid[ids]
        hits = int(present.sum())
        if hits:
            self.hits += hits
            registry.counter("infer.embed_store.hit").inc(hits)
        if hits == len(ids):
            return
        missing = np.unique(ids[~present])
        f = self._f
        col = 0
        for k, transform in enumerate(transforms):
            rows[missing, col:col + f] = transform.weight.data[
                attributes[missing, k]]
            col += f
        valid[missing] = True
        self.misses += int(missing.size)
        registry.counter("infer.embed_store.miss").inc(int(missing.size))

    def invalidate_entities(self, users, items) -> None:
        """Mark these entities' rows stale so they refill on next touch.

        Rating deltas cannot actually change a row (rows are pure functions
        of static attributes and encoder weights), so this is strictly
        conservative — the serving tier calls it on fine-grained graph
        updates so the store's invalidation granularity matches the
        context cache's, instead of dropping the whole store per update.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.size:
            self._user_valid[users] = False
        if items.size:
            self._item_valid[items] = False

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "users_cached": int(self._user_valid.sum()),
            "items_cached": int(self._item_valid.sum()),
            "bytes": int(self.user_rows.nbytes + self.item_rows.nbytes),
        }


class _AttnStep:
    """One attention layer bound to its input/output views and scratch.

    ``key`` names the layer's span views in a :class:`_PackProgram`.
    """

    __slots__ = ("attention", "norm", "key", "x", "out_arr", "residual",
                 "num_heads", "normed", "sq", "red_ln", "qkv", "q", "k", "v",
                 "scores", "red", "ctx", "attn_out")


class _RowAttnStep:
    """The last block's MBU pruned to each context's target row.

    ``full`` holds the full-size views (layer norm, QKV, ``q kᵀ``,
    ``probs·v``); the rest are the ``R = batch·m`` target-row buffers.
    """

    __slots__ = ("full", "residual", "score_rows", "probs", "red",
                 "attn_rows", "merged", "proj", "proj_rows", "h_rows",
                 "row_index", "out")


class _MbaStep:
    """One MBA layer bound to the shared token-major scratch."""

    __slots__ = ("attention", "norm", "residual", "x", "scratch")


class _EncodeSlot:
    """Encoder views for one context slab of ``h`` (possibly sliced)."""

    __slots__ = ("cell", "user_block", "item_block", "rat", "xu", "xi",
                 "idx_n", "idx_m", "rflt", "ilev", "emb", "pad")


class _PackProgram:
    """Precompiled views for one packed composition of context shapes."""

    __slots__ = ("slots", "attn_spans", "dec_spans", "row_softmax",
                 "row_dec_spans")


class InferencePlan:
    """A compiled, allocation-free forward for one (model, shape, dtype) key.

    Walks the ``HIRE`` / ``HIM`` / ``ContextEncoder`` structure once at build
    time, sizes every intermediate, and binds the ``*_into`` kernels to views
    of a shared :class:`Workspace`.  Parameter arrays are read through the
    module attributes at *run* time, so in-place weight updates (e.g.
    ``load_state_dict`` on a registered model) flow through without a
    rebuild.  The returned output is workspace-backed: it is valid until the
    next engine call on the same thread — copy it to retain it.

    Every plan also carries a *target-row tail*: run with ``rows`` (one
    user row per context), the first K−1 blocks execute as usual but the
    last block computes only the rows a prediction reads — see
    :meth:`_row_tail` and docs/nn_substrate.md ("Target-row plans").
    """

    def __init__(self, model, lead: tuple[int, ...], n: int, m: int,
                 ratings_dtype):
        self.model = model
        self.lead = tuple(lead)
        self.n = int(n)
        self.m = int(m)
        self.ratings_dtype = np.dtype(ratings_dtype)
        self.dtype = model.decoder.weight.data.dtype
        self.generation = generation()

        enc = model.encoder
        self.encoder = enc
        self.e = enc.embed_dim
        self.f = enc.attr_dim
        self.hu_f = enc.num_user_attrs * enc.attr_dim
        self.hi_f = enc.num_item_attrs * enc.attr_dim
        self.num_attrs = enc.num_attributes

        self.workspace = Workspace(self.dtype)
        self._reserve_buffers()
        self._bind_views()
        self._steps, self._row_steps = self._build_steps()
        # alpha pre-cast once so the sigmoid rescale allocates nothing per call.
        self._alpha = np.asarray(model.alpha, dtype=self.dtype)
        # Packed-execution programs, keyed by the composition of real
        # context shapes (one entry per distinct mix of (n_i, m_i) tuples).
        self._pack_programs: dict[tuple, _PackProgram] = {}

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def _attn_shapes(self, kind: str, n: int | None = None):
        """(batch_shape, tokens, width, heads) for one interaction kind,
        over ``n`` user rows (the plan's ``n`` unless given)."""
        lead, m = self.lead, self.m
        n = self.n if n is None else n
        if kind == "user":
            layer = self.model.blocks[0].user_attention
            return (*lead, m), n, self.e, layer.num_heads
        if kind == "item":
            layer = self.model.blocks[0].item_attention
            return (*lead, n), m, self.e, layer.num_heads
        layer = self.model.blocks[0].attr_attention
        return (*lead, n, m), self.num_attrs, self.f, layer.num_heads

    def _reserve_buffers(self) -> None:
        ws = self.workspace
        lead, n, m, e, f = self.lead, self.n, self.m, self.e, self.f
        cells = prod(lead) * n * m if lead else n * m
        ws.reserve("h", cells * e)
        block = self.model.blocks[0]
        if getattr(block, "use_user", False):
            ws.reserve("h_user", cells * e)
        ws.reserve("logits", cells)
        ws.reserve("out", cells)
        # Encoder scratch.
        ws.reserve("xu", n * self.hu_f)
        ws.reserve("xi", m * self.hi_f)
        ws.reserve("idx", max(n, m), dtype=np.int64)
        ws.reserve("rflt", n * m, dtype=self.ratings_dtype)
        ws.reserve("ilev", n * m, dtype=np.int64)
        ws.reserve("emb", n * m * f)
        # Attention arenas, sized to the max over the enabled kinds.  All
        # x-shaped buffers hold exactly ``cells * e`` elements (e = h·f);
        # scores/red vary per kind.  The layer-norm square scratch shares
        # the scores arena (they are never alive simultaneously).
        # MBA's token-major buffers carry its cells padded to whole lanes.
        x_count = cells * e
        scores_count = x_count
        red_count = 0
        wide_count = x_count
        for kind in self._enabled_kinds():
            bshape, t, d, heads = self._attn_shapes(kind)
            batch = prod(bshape) if bshape else 1
            if kind == "attr":
                batch = F.TokenMajorScratch.lanes(batch)
                wide_count = batch * e
            scores_count = max(scores_count, batch * heads * t * t)
            red_count = max(red_count, batch * heads * t, batch * t)
        for name in ("k", "v"):
            ws.reserve(name, x_count)
        for name in ("normed", "attn", "q", "ctx"):
            ws.reserve(name, wide_count)
        ws.reserve("qkv", 3 * wide_count)
        ws.reserve("scores", scores_count)
        ws.reserve("red", red_count)
        # Target-row tail: its gather indices.  Every tail buffer fits in
        # the arenas above (n >= 2 whenever the tail exists); the tail's
        # activation lives in ``h_user``, which the tail never uses as MBU
        # output, or in its own small arena when MBU is ablated.
        rows = prod(lead) * m
        ws.reserve("rows", 3 * prod(lead), dtype=np.int64)
        if getattr(block, "use_user", False):
            heads = self._attn_shapes("user")[3]
            ws.reserve("score_rows", 2 * rows * heads, dtype=np.int64)
        else:
            ws.reserve("h_row", rows * e)

    def _enabled_kinds(self):
        block = self.model.blocks[0]
        kinds = []
        if getattr(block, "use_user", False):
            kinds.append("user")
        if getattr(block, "use_item", False):
            kinds.append("item")
        if getattr(block, "use_attr", False):
            kinds.append("attr")
        return kinds

    def _bind_views(self) -> None:
        ws = self.workspace
        lead, n, m, e = self.lead, self.n, self.m, self.e
        contexts = prod(lead)
        self.h = ws.view("h", (*lead, n, m, e))
        self.h_user = (ws.view("h_user", (*lead, m, n, e))
                       if "h_user" in ws._arenas else None)
        self.logits = ws.view("logits", (*lead, n, m, 1))
        self._logits_nm = self.logits.reshape(*lead, n, m)
        self.out = ws.view("out", (*lead, n, m))
        # The tail mirrors the full layout with one user row per context.
        self.h_row = ws.view("h_user" if self.h_user is not None
                             else "h_row", (*lead, 1, m, e))
        self._row_logits = ws.view("logits", (*lead, 1, m, 1))
        self._row_logits_nm = self._row_logits.reshape(contexts, m)
        self.row_out = ws.view("out", (contexts, m))
        self._rows, self._row_base, self._row_index = ws.view(
            "rows", (3, contexts))
        np.multiply(np.arange(contexts), n, out=self._row_base)
        self._score_base = self._score_index = None
        if "score_rows" in ws._arenas:
            heads = self._attn_shapes("user")[3]
            self._score_base, self._score_index = ws.view(
                "score_rows", (2, contexts, m * heads))
            np.multiply(np.arange(contexts * m * heads).reshape(
                contexts, m * heads), n, out=self._score_base)
        # One full-shape encode slot per context slab; the encoder scratch
        # arenas are shared across slots (encodes run sequentially).
        slabs = self.h.reshape(-1, n, m, e)
        self._encode_slots = [self._make_encode_slot(slabs[b], n, m)
                              for b in range(slabs.shape[0])]

    def _make_encode_slot(self, cell: np.ndarray, n: int, m: int) -> _EncodeSlot:
        """Encoder views for one ``(n_full, m_full, e)`` slab of ``h``,
        filled over its leading ``(n, m)`` region; any padding strips beyond
        that region are zeroed on every encode."""
        ws = self.workspace
        slot = _EncodeSlot()
        slot.cell = cell[:n, :m]
        slot.user_block = slot.cell[:, :, : self.hu_f]
        slot.item_block = slot.cell[:, :, self.hu_f: self.hu_f + self.hi_f]
        slot.rat = slot.cell[:, :, self.hu_f + self.hi_f:]
        slot.xu = ws.view("xu", (n, self.hu_f))
        slot.xi = ws.view("xi", (m, self.hi_f))
        slot.idx_n = ws.view("idx", (n,))
        slot.idx_m = ws.view("idx", (m,))
        slot.rflt = ws.view("rflt", (n, m))
        slot.ilev = ws.view("ilev", (n, m))
        slot.emb = ws.view("emb", (n, m, self.f))
        pad = []
        if n < cell.shape[0]:
            pad.append(cell[n:, :, :])
        if m < cell.shape[1]:
            pad.append(cell[:n, m:, :])
        slot.pad = tuple(pad)
        return slot

    # ------------------------------------------------------------------ #
    # Step compilation
    # ------------------------------------------------------------------ #
    def _bind_attention(self, attention, norm, kind: str, x: np.ndarray,
                        out_arr: np.ndarray, residual: bool,
                        n: int | None = None, key: str | None = None
                        ) -> _AttnStep:
        ws = self.workspace
        bshape, t, d, heads = self._attn_shapes(kind, n)
        head_dim = d // heads
        step = _AttnStep()
        step.attention = attention
        step.norm = norm
        step.key = kind if key is None else key
        step.x = x
        step.out_arr = out_arr
        step.residual = residual
        step.num_heads = heads
        xshape = (*bshape, t, d)
        step.normed = ws.view("normed", xshape)
        step.sq = ws.view("scores", xshape)       # dead before scores live
        step.red_ln = ws.view("red", (*bshape, t, 1))
        step.qkv = ws.view("qkv", (*bshape, t, 3 * d))
        head_shape = (*bshape, heads, t, head_dim)
        step.q = ws.view("q", head_shape)
        step.k = ws.view("k", head_shape)
        step.v = ws.view("v", head_shape)
        step.ctx = ws.view("ctx", head_shape)
        step.scores = ws.view("scores", (*bshape, heads, t, t))
        step.red = ws.view("red", (*bshape, heads, t, 1))
        step.attn_out = ws.view("attn", xshape)
        return step

    def _bind_row_attention(self, block) -> _RowAttnStep:
        """The last block's MBU bound for target rows (see :meth:`_row_tail`)."""
        ws = self.workspace
        n, m, e = self.n, self.m, self.e
        norm = block.user_norm if block.use_layer_norm else None
        full = self._bind_attention(block.user_attention, norm, "user",
                                    self.h.swapaxes(-3, -2), None,
                                    block.use_residual)
        heads = full.num_heads
        contexts = prod(self.lead)
        rows = contexts * m
        step = _RowAttnStep()
        step.full = full
        step.residual = block.use_residual
        step.score_rows = self._score_index.reshape(-1)
        step.probs = ws.view("normed", (contexts, m, heads, n))
        step.red = ws.view("red", (contexts, m, heads, 1))
        # The projection operand is 2-D with at least two rows: a one-row
        # GEMM would take numpy's vector path and round differently.
        step.attn_rows = ws.view("attn", (max(rows, 2), e))
        step.merged = step.attn_rows[:rows].reshape(rows * heads, e // heads)
        step.proj = ws.view("normed", (max(rows, 2), e))
        step.proj_rows = step.proj[:rows].reshape(contexts, m, e)
        step.h_rows = self.h.reshape(-1, m, e)
        step.row_index = self._row_index
        step.out = self.h_row.reshape(contexts, m, e)
        return step

    def _bind_mba(self, n: int) -> F.TokenMajorScratch:
        """Token-major MBA scratch over the attention arenas, for ``n``
        user rows (shared by every block: the MBA steps never overlap)."""
        ws = self.workspace
        bshape, t, d, heads = self._attn_shapes("attr", n)
        lanes = F.TokenMajorScratch.lanes(prod(bshape))
        x_shape = (d, t, lanes)
        normed = ws.view("normed", x_shape)
        return F.TokenMajorScratch(
            xt=ws.view("attn", x_shape), xhat=normed, normed=normed,
            stats=ws.view("red", (t, lanes)),
            qkv=ws.view("qkv", (3 * d, t, lanes)),
            scores=ws.view("scores", (heads, t, t, lanes)),
            red=ws.view("red", (heads, t, 1, lanes)),
            ctx=ws.view("ctx", x_shape), y=ws.view("q", x_shape))

    @staticmethod
    def _exec_mba(step: _MbaStep, pack=None) -> None:
        at, norm = step.attention, step.norm
        bias = at.w_output.bias
        F.attribute_attention_into(
            step.x, at.w_qkv.data, at.w_output.weight.data, at.num_heads,
            step.x, step.scratch,
            gamma=None if norm is None else norm.gamma.data,
            beta=None if norm is None else norm.beta.data,
            bias=None if bias is None else bias.data,
            residual=step.residual,
            eps=1e-5 if norm is None else norm.eps)

    @staticmethod
    def _project_qkv(step: _AttnStep) -> None:
        """Pre-layer-norm (when enabled) and the packed QKV projection."""
        if step.norm is not None:
            F.layer_norm_into(step.x, step.norm.gamma.data,
                              step.norm.beta.data, step.normed, step.sq,
                              step.red_ln, eps=step.norm.eps)
            src = step.normed
        else:
            src = step.x
        F.linear_into(src, step.attention.w_qkv.data, step.qkv)

    @staticmethod
    def _exec_attn(step: _AttnStep, pack=None) -> None:
        at = step.attention
        InferencePlan._project_qkv(step)
        F.mha_qkv_into(step.qkv, step.num_heads, step.attn_out, step.q,
                       step.k, step.v, step.scores, step.red, step.ctx,
                       spans=None if pack is None else pack.attn_spans[step.key])
        bias = at.w_output.bias
        F.linear_into(step.attn_out, at.w_output.weight.data, step.normed,
                      bias=None if bias is None else bias.data)
        if step.residual:
            np.add(step.x, step.normed, out=step.out_arr)
        else:
            np.copyto(step.out_arr, step.normed)

    @staticmethod
    def _exec_row_attn(step: _RowAttnStep, pack=None) -> None:
        full = step.full
        at = full.attention
        InferencePlan._project_qkv(full)
        F.mha_qkv_rows_into(
            full.qkv, full.num_heads, step.merged, full.q, full.k, full.v,
            full.scores, full.ctx, step.score_rows, step.probs, step.red,
            spans=None if pack is None else pack.attn_spans["user"],
            row_spans=None if pack is None else pack.row_softmax)
        bias = at.w_output.bias
        F.linear_into(step.attn_rows, at.w_output.weight.data, step.proj,
                      bias=None if bias is None else bias.data)
        if step.residual:
            np.take(step.h_rows, step.row_index, axis=0, out=step.out,
                    mode="clip")
            np.add(step.out, step.proj_rows, out=step.out)
        else:
            np.copyto(step.out, step.proj_rows)

    @staticmethod
    def _exec_copy(step, pack=None) -> None:
        np.copyto(*step)

    @staticmethod
    def _exec_gather(step, pack=None) -> None:
        src, index, out = step
        np.take(src, index, axis=0, out=out, mode="clip")

    def _build_steps(self):
        """Flatten the K HIM blocks into ``(span name, runner, step)``
        triples: the full-output steps, and the target-row steps (the first
        K−1 blocks' steps, then :meth:`_row_tail`).  The latter is ``None``
        when ``n == 1``, where the only row is the target.

        The activation ping-pongs between ``h`` (row-major ``(…, n, m, e)``)
        and ``h_user`` (``(…, m, n, e)``): MBU reads a transposed view of
        ``h`` and lands in ``h_user``; MBI reads the transposed view back and
        lands in ``h``; MBA runs in place on ``h``.  Ablated blocks insert an
        explicit copy so MBA always sees contiguous ``h`` (mirroring the
        reshape-copy the Tensor path performs on a non-contiguous input).
        """
        lead, n, m = self.lead, self.n, self.m
        steps = []
        mba_scratch = (self._bind_mba(n) if "attr" in self._enabled_kinds()
                       else None)
        last_start = 0
        for block in self.model.blocks:
            last_start = len(steps)
            in_h = True  # activation currently lives in self.h
            if block.use_user:
                x = self.h.swapaxes(-3, -2)          # (…, m, n, e) view
                norm = block.user_norm if block.use_layer_norm else None
                steps.append(("mbu", self._exec_attn, self._bind_attention(
                    block.user_attention, norm, "user", x, self.h_user,
                    block.use_residual)))
                in_h = False
            if block.use_item:
                x = self.h if in_h else self.h_user.swapaxes(-3, -2)
                norm = block.item_norm if block.use_layer_norm else None
                steps.append(("mbi", self._exec_attn, self._bind_attention(
                    block.item_attention, norm, "item", x, self.h,
                    block.use_residual)))
                in_h = True
            if block.use_attr:
                if not in_h:
                    steps.append(("mbu", self._exec_copy,
                                  (self.h, self.h_user.swapaxes(-3, -2))))
                    in_h = True
                mba = _MbaStep()
                mba.attention = block.attr_attention
                mba.norm = block.attr_norm if block.use_layer_norm else None
                mba.residual = block.use_residual
                mba.x = self.h.reshape(*lead, n, m, self.num_attrs, self.f)
                mba.scratch = mba_scratch
                steps.append(("mba", self._exec_mba, mba))
            if not in_h:
                steps.append(("mbu", self._exec_copy,
                              (self.h, self.h_user.swapaxes(-3, -2))))
        if n == 1:
            return steps, None
        return steps, (steps[:last_start]
                       + self._row_tail(self.model.blocks[-1]))

    def _row_tail(self, block):
        """The last block computed for one target row per context.

        A prediction reads only row ``rows[b]`` of context ``b``'s output.
        MBI, MBA and the decoder act within a user row, so they run on the
        ``(…, 1, m, e)`` target rows of ``h_row`` with the same per-row
        call shapes as the full plan.  MBU mixes rows, so its layer norm,
        QKV projection and ``q kᵀ`` / ``probs·v`` GEMMs stay full-size;
        only the softmax, head merge, output projection and residual run
        on the target rows (:func:`repro.nn.functional.mha_qkv_rows_into`).
        """
        lead, m = self.lead, self.m
        h_row = self.h_row
        steps = []
        if block.use_user:
            steps.append(("mbu", self._exec_row_attn,
                          self._bind_row_attention(block)))
        else:
            steps.append(("mbi" if block.use_item else "mba",
                          self._exec_gather,
                          (self.h.reshape(-1, m, self.e), self._row_index,
                           h_row.reshape(-1, m, self.e))))
        if block.use_item:
            norm = block.item_norm if block.use_layer_norm else None
            steps.append(("mbi", self._exec_attn, self._bind_attention(
                block.item_attention, norm, "item", h_row, h_row,
                block.use_residual, n=1, key="row_item")))
        if block.use_attr:
            mba = _MbaStep()
            mba.attention = block.attr_attention
            mba.norm = block.attr_norm if block.use_layer_norm else None
            mba.residual = block.use_residual
            mba.x = h_row.reshape(*lead, 1, m, self.num_attrs, self.f)
            mba.scratch = self._bind_mba(1)
            steps.append(("mba", self._exec_mba, mba))
        return steps

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _encode_into(self, context, slot: _EncodeSlot,
                     store: EmbeddingStore | None = None) -> None:
        """Fill one context's slab of ``h`` in place through ``slot``'s views."""
        enc = self.encoder
        f = self.f
        if store is not None:
            # Warm path: rows were built by the identical gather ops, so a
            # single whole-row take per side reproduces the same bytes.
            store.ensure(context.users, context.items)
            if self.hu_f:
                np.take(store.user_rows, context.users, axis=0, out=slot.xu)
            if self.hi_f:
                np.take(store.item_rows, context.items, axis=0, out=slot.xi)
        else:
            col = 0
            for k, transform in enumerate(enc.user_transforms):
                np.take(enc._user_attributes[:, k], context.users,
                        out=slot.idx_n)
                np.take(transform.weight.data, slot.idx_n, axis=0,
                        out=slot.xu[:, col:col + f])
                col += f
            col = 0
            for k, transform in enumerate(enc.item_transforms):
                np.take(enc._item_attributes[:, k], context.items,
                        out=slot.idx_m)
                np.take(transform.weight.data, slot.idx_m, axis=0,
                        out=slot.xi[:, col:col + f])
                col += f
        if self.hu_f:
            slot.user_block[...] = slot.xu[:, None, :]
        if self.hi_f:
            slot.item_block[...] = slot.xi[None, :, :]
        # Ratings: dense lookup into the scratch table, then masked copy —
        # revealed cells land on exactly the rows the sparse Tensor encode
        # looks up; masked cells take the mask token / zero fill.
        np.subtract(context.ratings, enc.rating_low, out=slot.rflt)
        np.rint(slot.rflt, out=slot.rflt)
        np.copyto(slot.ilev, slot.rflt, casting="unsafe")
        np.clip(slot.ilev, 0, enc.num_rating_levels - 1, out=slot.ilev)
        np.take(enc.rating_transform.weight.data, slot.ilev, axis=0,
                out=slot.emb)
        if enc.mask_token is not None:
            slot.rat[...] = enc.mask_token.data
        else:
            slot.rat.fill(0.0)
        np.copyto(slot.rat, slot.emb, where=context.revealed[:, :, None])
        for strip in slot.pad:
            strip.fill(0.0)

    def _encode_all(self, slots, contexts, store) -> None:
        with _spans.span("encode"):
            for slot, context in zip(slots, contexts):
                self._encode_into(context, slot, store)

    def _set_rows(self, rows, contexts) -> None:
        """Check one target row per context and fill the tail's indices."""
        if len(rows) != len(contexts):
            raise ValueError(
                f"got {len(rows)} target rows for {len(contexts)} contexts")
        for row, context in zip(rows, contexts):
            if not 0 <= row < context.n:
                raise ValueError(f"target row {row} outside a context of "
                                 f"{context.n} users")
        self._rows[...] = rows
        np.add(self._row_base, self._rows, out=self._row_index)
        if self._score_index is not None:
            np.add(self._score_base, self._rows[:, None],
                   out=self._score_index)

    def _execute(self, pack: _PackProgram | None = None,
                 rows: bool = False) -> np.ndarray:
        tail = rows and self._row_steps is not None
        for name, run, step in (self._row_steps if tail else self._steps):
            with _spans.span(name):
                run(step, pack)
        with _spans.span("decode"):
            if tail:
                self._decode(self.h_row, self._row_logits,
                             self._row_logits_nm, self.row_out,
                             None if pack is None else pack.row_dec_spans)
            else:
                self._decode(self.h, self.logits, self._logits_nm, self.out,
                             None if pack is None else pack.dec_spans)
        return self.row_out if rows else self.out

    def _decode(self, h, logits, logits_nm, out, dec_spans) -> None:
        dec = self.model.decoder
        if dec_spans is None:
            F.linear_into(h, dec.weight.data, logits,
                          bias=None if dec.bias is None else dec.bias.data)
        else:
            # The decoder GEMM has N=1, whose OpenBLAS kernel is not
            # M-padding-stable — run it per shape group on sliced views
            # (each batch slice is a contiguous (m_i, e) block), then add
            # the bias over the full buffer exactly like linear_into.
            for h_s, out_s in dec_spans:
                np.matmul(h_s, dec.weight.data, out=out_s)
            if dec.bias is not None:
                logits += dec.bias.data
        F.sigmoid_rescale_into(logits_nm, self._alpha, out)

    def run(self, context, store: EmbeddingStore | None = None,
            rows=None) -> np.ndarray:
        """Single-context forward: returns the workspace-backed ``(n, m)``,
        or with ``rows=(r,)`` the ``(1, m)`` target row ``r``."""
        if self.lead:
            raise ValueError("batched plan cannot run a single context")
        if rows is not None:
            self._set_rows(rows, (context,))
        self._encode_all(self._encode_slots, (context,), store)
        return self._execute(rows=rows is not None)

    def run_many(self, contexts, store: EmbeddingStore | None = None,
                 rows=None) -> np.ndarray:
        """Batched forward: returns the workspace-backed ``(B, n, m)``, or
        with ``rows`` (one per context) the ``(B, m)`` target rows."""
        if self.lead != (len(contexts),):
            raise ValueError(
                f"plan built for batch {self.lead}, got {len(contexts)}")
        if rows is not None:
            self._set_rows(rows, contexts)
        self._encode_all(self._encode_slots, contexts, store)
        return self._execute(rows=rows is not None)

    # ------------------------------------------------------------------ #
    # Padded packing
    # ------------------------------------------------------------------ #
    def run_packed(self, contexts, store: EmbeddingStore | None = None,
                   rows=None) -> np.ndarray:
        """Padded mixed-shape forward: returns workspace-backed ``(B, n, m)``,
        or with ``rows`` the ``(B, m)`` target rows.

        ``contexts`` may be smaller than the plan's ``(n, m)``; each is
        zero-padded into its slab.  Contexts must arrive grouped so equal
        shapes are contiguous (sort descending by ``(n, m)`` — see
        :func:`forward_inference_packed`).  Real rows/columns of each slab
        are bitwise identical to an unpadded forward of that context:
        elementwise ops, layer norms, the (M≥8, N≥8) linears and the
        per-cell MBA attention are padding-stable full-batched, while the
        MBU/MBI attention cores and the N=1 decoder GEMM execute per shape
        group on sliced views whose reduction lengths equal the real ones.
        Padded regions of the output are stale garbage — never read them.
        """
        if self.lead != (len(contexts),):
            raise ValueError(
                f"plan built for batch {self.lead}, got {len(contexts)}")
        shapes = tuple((context.n, context.m) for context in contexts)
        program = self._pack_programs.get(shapes)
        if program is None:
            program = self._compile_pack(shapes)
            if len(self._pack_programs) >= _MAX_PACK_PROGRAMS:
                self._pack_programs.clear()
            self._pack_programs[shapes] = program
        if rows is not None:
            self._set_rows(rows, contexts)
        self._encode_all(program.slots, contexts, store)
        return self._execute(program, rows=rows is not None)

    def _compile_pack(self, shapes) -> _PackProgram:
        """Bind the sliced views for one composition of context shapes."""
        n, m = self.n, self.m
        groups = []  # (b0, b1, n_i, m_i) contiguous same-shape runs
        seen = set()
        for b, (n_i, m_i) in enumerate(shapes):
            if not (1 <= n_i <= n and 1 <= m_i <= m):
                raise ValueError(
                    f"context shape ({n_i}, {m_i}) exceeds plan ({n}, {m})")
            if groups and groups[-1][2:] == (n_i, m_i):
                groups[-1] = (groups[-1][0], b + 1, n_i, m_i)
            else:
                if (n_i, m_i) in seen:
                    raise ValueError(
                        "packed contexts must be grouped by shape "
                        "(sort before calling run_packed)")
                seen.add((n_i, m_i))
                groups.append((b, b + 1, n_i, m_i))
        slabs = self.h.reshape(-1, n, m, self.e)
        program = _PackProgram()
        program.slots = [self._make_encode_slot(slabs[b], n_i, m_i)
                         for b, (n_i, m_i) in enumerate(shapes)]
        kinds = self._enabled_kinds()
        program.attn_spans = {kind: self._span_views(kind, groups)
                              for kind in kinds if kind != "attr"}
        program.dec_spans = [(self.h[b0:b1, :n_i, :m_i, :],
                              self.logits[b0:b1, :n_i, :m_i, :])
                             for b0, b1, n_i, m_i in groups]
        # The tail: one (real) user row per context.
        row_groups = [(b0, b1, 1, m_i) for b0, b1, _, m_i in groups]
        if "item" in kinds:
            program.attn_spans["row_item"] = self._span_views(
                "item", row_groups, n=1)
        program.row_softmax = None
        if "user" in kinds:
            ws = self.workspace
            heads = self._attn_shapes("user")[3]
            probs = ws.view("normed", (len(shapes), m, heads, n))
            red = ws.view("red", (len(shapes), m, heads, 1))
            program.row_softmax = [(probs[b0:b1, :m_i, :, :n_i],
                                    red[b0:b1, :m_i])
                                   for b0, b1, n_i, m_i in groups]
        program.row_dec_spans = [(self.h_row[b0:b1, :, :m_i, :],
                                  self._row_logits[b0:b1, :, :m_i, :])
                                 for b0, b1, _, m_i in groups]
        return program

    def _span_views(self, kind: str, groups, n: int | None = None):
        """Per-group sliced (q, kᵀ, v, scores, red, ctx) views for one kind."""
        ws = self.workspace
        bshape, t, d, heads = self._attn_shapes(kind, n)
        head_dim = d // heads
        head_shape = (*bshape, heads, t, head_dim)
        q = ws.view("q", head_shape)
        k = ws.view("k", head_shape)
        v = ws.view("v", head_shape)
        ctx = ws.view("ctx", head_shape)
        scores = ws.view("scores", (*bshape, heads, t, t))
        red = ws.view("red", (*bshape, heads, t, 1))
        spans = []
        for b0, b1, n_i, m_i in groups:
            # MBU attends n tokens batched over m columns; MBI the reverse.
            g, tt = (m_i, n_i) if kind == "user" else (n_i, m_i)
            sl = (slice(b0, b1), slice(0, g), slice(None), slice(0, tt))
            spans.append((
                q[sl],
                np.swapaxes(k[sl], -1, -2),
                v[sl],
                scores[b0:b1, :g, :, :tt, :tt],
                red[b0:b1, :g, :, :tt, :],
                ctx[sl],
            ))
        return spans

    def matches(self, model, lead, n: int, m: int, ratings_dtype) -> bool:
        return (self.model is model
                and self.lead == tuple(lead)
                and self.n == n and self.m == m
                and self.ratings_dtype == np.dtype(ratings_dtype)
                and self.dtype == model.decoder.weight.data.dtype)


# --------------------------------------------------------------------------- #
# Plan cache (thread-local LRU) and generation-based invalidation
# --------------------------------------------------------------------------- #
_GEN_LOCK = threading.Lock()
_GENERATION = 0
# Mixed-shape traffic keys plans by *bucketed* shapes (the serve tier rounds
# (n, m) up to pack buckets), so the key space stays small; 16 entries give
# several lead sizes × several buckets headroom without hoarding workspaces.
_MAX_PLANS = 16
_MAX_PACK_PROGRAMS = 32


def generation() -> int:
    """Current plan generation; plans built under older generations are stale."""
    return _GENERATION


def bump_generation() -> None:
    """Invalidate every cached plan in every thread (lazily, on next lookup).

    Called by :class:`repro.serve.ModelRegistry` on hot swaps so no stale
    plan keeps a retired model (or its workspace) alive.
    """
    global _GENERATION
    with _GEN_LOCK:
        _GENERATION += 1


class _ThreadPlans:
    """One thread's plan LRU and the workspace bytes its plans hold."""

    __slots__ = ("plans", "generation", "nbytes", "__weakref__")

    def __init__(self):
        self.plans: OrderedDict = OrderedDict()
        self.generation = -1
        self.nbytes = 0


# Every live thread's plans, for the ``infer.workspace_bytes`` gauge.  A
# thread's ``_ThreadPlans`` dies with the thread's local storage at exit,
# which drops it from the set and republishes the gauge.  Re-entrant: a
# thread-exit finalizer may fire while this thread publishes.
_LEDGER_LOCK = threading.RLock()
_LEDGER: "weakref.WeakSet[_ThreadPlans]" = weakref.WeakSet()


def _publish_workspace_bytes() -> None:
    """Set ``infer.workspace_bytes`` to the sum over every live thread."""
    with _LEDGER_LOCK:
        states = list(_LEDGER)
        _metrics.get_registry().gauge("infer.workspace_bytes").set(
            sum(state.nbytes for state in states))


class _PlanCache(threading.local):
    def __init__(self):
        self.state = _ThreadPlans()
        with _LEDGER_LOCK:
            _LEDGER.add(self.state)
        weakref.finalize(self.state, _publish_workspace_bytes).atexit = False


_CACHE = _PlanCache()


def _plans_changed(state: _ThreadPlans) -> None:
    state.nbytes = sum(p.workspace.nbytes for p in state.plans.values())
    _publish_workspace_bytes()


def clear_cache() -> None:
    """Drop this thread's cached plans (frees their workspaces)."""
    state = _CACHE.state
    state.plans.clear()
    _plans_changed(state)


def cache_stats() -> dict:
    """This thread's plan-cache state plus the global hit/miss counters."""
    state = _CACHE.state
    snapshot = _metrics.get_registry().snapshot()
    return {
        "plans": len(state.plans),
        "generation": generation(),
        "workspace_bytes": state.nbytes,
        "hits": snapshot.get("infer.plan_cache.hit", {}).get("value", 0),
        "misses": snapshot.get("infer.plan_cache.miss", {}).get("value", 0),
    }


def get_plan(model, lead, n: int, m: int, ratings_dtype) -> InferencePlan:
    """Fetch or build the plan for (model, lead, n, m); LRU-cached per thread."""
    state = _CACHE.state
    gen = generation()
    if state.generation != gen:
        stale = bool(state.plans)
        state.plans.clear()
        state.generation = gen
        if stale:
            _plans_changed(state)
    key = (id(model), tuple(lead), n, m)
    registry = _metrics.get_registry()
    plan = state.plans.get(key)
    if plan is not None and plan.matches(model, lead, n, m, ratings_dtype):
        state.plans.move_to_end(key)
        registry.counter("infer.plan_cache.hit").inc()
        return plan
    registry.counter("infer.plan_cache.miss").inc()
    with _spans.span("infer/plan_build"):
        plan = InferencePlan(model, lead, n, m, ratings_dtype)
    state.plans[key] = plan
    state.plans.move_to_end(key)
    while len(state.plans) > _MAX_PLANS:
        state.plans.popitem(last=False)
    _plans_changed(state)
    return plan


def engine_supported(model) -> bool:
    """Whether the engine can replace the Tensor forward for ``model``.

    False (→ callers use the Tensor path) when any attention layer is
    capturing weights, or when the model does not expose the HIRE
    encoder/blocks/decoder structure the planner walks.
    """
    if not all(hasattr(model, name)
               for name in ("encoder", "blocks", "decoder", "alpha")):
        return False
    enc = model.encoder
    if not all(hasattr(enc, name)
               for name in ("user_transforms", "item_transforms",
                            "rating_transform", "mask_token")):
        return False
    for block in model.blocks:
        for name in ("user_attention", "item_attention", "attr_attention"):
            layer = getattr(block, name, None)
            if layer is not None and layer.capture_attention:
                return False
    return True


def forward_inference(model, context,
                      embed_store: EmbeddingStore | None = None,
                      rows=None) -> np.ndarray:
    """Run one context through the compiled plan; ``(n, m)`` ratings.

    With ``rows=(r,)`` only user row ``r`` is computed through the last
    block (the target-row tail) and the result is ``(1, m)``, bitwise equal
    to row ``r`` of the full output.  The result is a view into the plan's
    workspace — valid until the next engine call on this thread.  Copy it
    to retain it.  ``embed_store`` optionally reuses warm per-entity
    attribute rows (bitwise identical).
    """
    plan = get_plan(model, (), context.n, context.m, context.ratings.dtype)
    with _spans.span("infer/forward"):
        return plan.run(context, embed_store, rows)


def forward_inference_many(model, contexts,
                           embed_store: EmbeddingStore | None = None,
                           rows=None) -> np.ndarray:
    """Batched engine forward over same-shape contexts; ``(B, n, m)``.

    Bit-identical per slice to :func:`forward_inference` on each context,
    matching the ``forward_many`` contract of the Tensor path.  With
    ``rows`` (one user row per context) the result is the ``(B, m)`` target
    rows.  The result is workspace-backed (see :func:`forward_inference`).
    """
    if not contexts:
        raise ValueError("forward_inference_many needs at least one context")
    first = contexts[0]
    plan = get_plan(model, (len(contexts),), first.n, first.m,
                    first.ratings.dtype)
    with _spans.span("infer/forward"):
        return plan.run_many(contexts, embed_store, rows)


def forward_inference_packed(model, contexts, n: int, m: int,
                             embed_store: EmbeddingStore | None = None,
                             rows=None):
    """Padded mixed-shape engine forward through one ``(B, n, m)`` plan.

    Pads every context into an ``(n, m)`` slab of a single stacked plan and
    executes once, with the attention cores and decoder sliced per shape
    group so each real row's scores stay bitwise identical to an unpadded
    :func:`forward_inference` of the same context (see
    :meth:`InferencePlan.run_packed`; float32 shares the same guarantee on
    the kernels this engine generates).

    Returns ``(outputs, slots)``: ``outputs`` is the workspace-backed
    ``(B, n, m)`` padded result and ``slots[i]`` the row holding
    ``contexts[i]`` (contexts are re-ordered internally so equal shapes sit
    in contiguous runs).  Only the leading ``(contexts[i].n, contexts[i].m)``
    region of a slab is meaningful.  With ``rows`` (``rows[i]`` the target
    user row of ``contexts[i]``) ``outputs`` is the ``(B, m)`` target rows,
    of which ``outputs[slots[i]][:contexts[i].m]`` is meaningful.
    """
    if not contexts:
        raise ValueError("forward_inference_packed needs at least one context")
    ratings_dtype = contexts[0].ratings.dtype
    for context in contexts:
        if context.ratings.dtype != ratings_dtype:
            raise ValueError("packed contexts must share a ratings dtype")
    order = sorted(range(len(contexts)),
                   key=lambda i: (-contexts[i].n, -contexts[i].m))
    ordered = [contexts[i] for i in order]
    if rows is not None:
        if len(rows) != len(contexts):
            raise ValueError(f"got {len(rows)} target rows for "
                             f"{len(contexts)} contexts")
        rows = [rows[i] for i in order]
    plan = get_plan(model, (len(contexts),), n, m, ratings_dtype)
    with _spans.span("infer/forward"):
        outputs = plan.run_packed(ordered, embed_store, rows)
    slots = [0] * len(contexts)
    for row, index in enumerate(order):
        slots[index] = row
    return outputs, slots
