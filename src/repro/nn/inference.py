"""Graph-free inference engine: shape-keyed execution plans with workspace reuse.

The serving hot path does not need autograd: under ``no_grad`` every op still
pays ``Tensor._from_op`` wrapper construction, a fresh output allocation per
node, and head-split copies per attention call.  This module compiles the
HIRE forward (encoder → K× [MBU, MBI, MBA] → decoder) into an
:class:`InferencePlan` — a flat list of raw-ndarray kernel invocations
(``linear_into`` / ``layer_norm_into`` / ``mha_qkv_into`` / … from
:mod:`repro.nn.functional`) whose every intermediate is a view into the
calling thread's :class:`Workspace`.  After the first (warmup) call at a
given (model, batch, n, m, dtype) key, repeated calls perform **zero** new
ndarray allocations, and every score is bitwise identical to the same cell
of the ``no_grad`` Tensor forward, whose autograd nodes run the same kernels.

The engine runs one program.  A prediction reads one user row of each
context's R̂ (Eq. 16), so every call names that row (``rows=``, one per
context) and gets back the ``(B, m)`` target rows: the first K−1 blocks run
over every cell, the last block only for the target rows (the *target-row
tail*, see docs/nn_substrate.md, "Target-row plans").  Contexts are padded
into one ``(B, n, m)`` plan: the FLOP-heavy linears, layer norms and the
per-cell MBA attention run full-padded in one batched call, while the
MBU/MBI attention cores and the decoder GEMM run per shape group on sliced
views of the padded arenas, so the reduction lengths the floating-point
sums see never change (docs/nn_substrate.md, "Padded packing").  A batch
of equal shapes is the one-group composition of that program, and a single
context is a batch of one.  The three entry points —
:func:`forward_inference`, :func:`forward_inference_many` and
:func:`forward_inference_packed` — each make one call into that program.
The full ``(n, m)`` matrix is the Tensor forward's job (``HIRE.forward``),
as are gradients and ``capture_attention`` (see :func:`engine_supported`).

Plans are cached per thread in a small LRU keyed by
``(id(model), batch, n, m)`` and are invalidated by a module-wide
generation counter which :class:`repro.serve.ModelRegistry` bumps on every
hot swap (``add`` / ``activate`` / ``unregister``).  A thread's plans share
its one workspace, grown to the largest plan the thread has built; a build
that grows it drops the thread's other plans.

Observability: every run is wrapped in an ``infer/forward`` span with one
child span per step kind (``encode``, ``mbu``, ``mbi``, ``mba``,
``decode``; no-ops unless profiling is on), and the process metrics
registry tracks ``infer.plan_cache.hit`` / ``infer.plan_cache.miss``
counters plus an ``infer.workspace_bytes`` gauge summed over every live
thread's workspace.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from math import prod

import numpy as np

from . import functional as F
from ..obs import metrics as _metrics
from ..obs import spans as _spans

__all__ = [
    "Workspace",
    "InferencePlan",
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
    """One thread's flat arenas of preallocated memory, carved into views.

    Arenas are keyed by ``(name, dtype)`` and only grow.  Every plan a
    thread builds binds its views into that thread's one workspace, so the
    footprint is the largest plan's rather than the sum over cached plans.
    Buffers that are never alive at the same time (e.g. the layer-norm
    square scratch and the attention score matrix) share an arena sized to
    the larger of the two.  ``regrown`` counts arenas replaced by larger
    ones: views bound before a regrowth still point at the old memory.
    """

    def __init__(self):
        self._arenas: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.regrown = 0

    def reserve(self, name: str, count: int, dtype) -> None:
        """Grow arena ``(name, dtype)`` to at least ``count`` elements.

        A new arena starts zeroed (not ``np.empty``): padded executions
        read whole buffers through elementwise ops, and uninitialised ±inf
        garbage would turn a padded layer-norm row into ``inf - inf`` NaN
        warnings.  A plan binding an existing arena finds the finite values
        of earlier runs there; only padded cells ever read them.
        """
        key = (name, np.dtype(dtype))
        existing = self._arenas.get(key)
        if existing is None or existing.size < count:
            self._arenas[key] = np.zeros(max(count, 1), dtype=key[1])
            self.regrown += existing is not None

    def view(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A contiguous view of arena ``(name, dtype)`` with ``shape``."""
        count = prod(shape) if shape else 1
        arena = self._arenas[(name, np.dtype(dtype))]
        if count > arena.size:
            raise ValueError(
                f"arena {name!r} holds {arena.size} elements, need {count}")
        return arena[:count].reshape(shape)

    def pinned(self) -> "Workspace":
        """A workspace over today's arenas, untouched by later growth."""
        pinned = Workspace()
        pinned._arenas = dict(self._arenas)
        return pinned

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arenas.values())


class _AttnStep:
    """One attention layer bound to its input/output views and scratch.

    ``key`` names the layer's span views in a :class:`_Program`.
    """

    __slots__ = ("attention", "norm", "key", "x", "out_arr", "residual",
                 "num_heads", "normed", "sq", "red_ln", "qkv", "q", "k", "v",
                 "scores", "red", "ctx", "attn_out")


class _RowAttnStep:
    """The last block's MBU pruned to each context's target row.

    ``full`` holds the full-size views (layer norm, QKV, ``q kᵀ``,
    ``probs·v``); the rest are the ``R = batch·m`` target-row buffers.
    """

    __slots__ = ("full", "residual", "score_rows", "probs", "attn_rows",
                 "merged", "proj", "proj_rows", "h_rows", "row_index", "out")


class _MbaStep:
    """One MBA layer bound to the shared token-major scratch."""

    __slots__ = ("attention", "norm", "residual", "x", "scratch")


class _EncodeSlot:
    """Encoder views for one context slab of ``h`` (possibly sliced)."""

    __slots__ = ("cell", "user_block", "item_block", "rat", "xu", "xi",
                 "rflt", "ilev", "emb", "pad")


class _Program:
    """Precompiled views for one composition of context shapes.

    ``user_ids`` / ``item_ids`` hold every context's entity ids end to end,
    ``user_idx`` / ``item_idx`` one attribute column of them, and ``xu`` /
    ``xi`` the gathered attribute rows that each slot's ``xu`` / ``xi``
    slices: one gather pair per attribute table encodes the whole batch.
    """

    __slots__ = ("slots", "user_ids", "item_ids", "user_idx", "item_idx",
                 "xu", "xi", "attn_spans", "row_softmax", "dec_spans")


class InferencePlan:
    """A compiled, allocation-free forward for one (model, shape, dtype) key.

    Walks the ``HIRE`` / ``HIM`` / ``ContextEncoder`` structure once at build
    time, sizes every intermediate, and binds the ``*_into`` kernels to views
    of ``workspace`` (the calling thread's, through :func:`get_plan`); the
    plan owns only its small index arrays.  Parameter arrays are read
    through the module attributes at *run* time, so in-place weight updates
    (e.g. ``load_state_dict`` on a registered model) flow through without a
    rebuild.  The returned output is workspace-backed: it is valid until the
    next engine call on the same thread — copy it to retain it.

    :meth:`run` computes one user row per context: the first K−1 blocks
    execute over every cell, the last only for the target rows — see
    :meth:`_row_tail` and docs/nn_substrate.md ("Target-row plans").
    """

    def __init__(self, model, batch: int, n: int, m: int, ratings_dtype,
                 workspace: Workspace):
        self.model = model
        self.batch = int(batch)
        self.n = int(n)
        self.m = int(m)
        self.ratings_dtype = np.dtype(ratings_dtype)
        self.dtype = model.decoder.weight.data.dtype

        enc = model.encoder
        self.encoder = enc
        self.e = enc.embed_dim
        self.f = enc.attr_dim
        self.hu_f = enc.num_user_attrs * enc.attr_dim
        self.hi_f = enc.num_item_attrs * enc.attr_dim
        self.num_attrs = enc.num_attributes

        self.workspace = workspace
        self._reserve_buffers()
        # Every view, including those of programs compiled later, comes
        # from the arenas as they stand now: a plan held past a build that
        # grows the thread's workspace keeps running on its own arenas.
        self.workspace = workspace.pinned()
        self._bind_views()
        self._steps = self._build_steps()
        # alpha pre-cast once so the sigmoid rescale allocates nothing per call.
        self._alpha = np.asarray(model.alpha, dtype=self.dtype)
        # Programs keyed by the composition of real context shapes (one
        # entry per distinct mix of (n_i, m_i) tuples).
        self._programs: dict[tuple, _Program] = {}

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def _attn_shapes(self, kind: str, n: int | None = None):
        """(batch_shape, tokens, width, heads) for one interaction kind,
        over ``n`` user rows (the plan's ``n`` unless given)."""
        batch, m = self.batch, self.m
        n = self.n if n is None else n
        if kind == "user":
            layer = self.model.blocks[0].user_attention
            return (batch, m), n, self.e, layer.num_heads
        if kind == "item":
            layer = self.model.blocks[0].item_attention
            return (batch, n), m, self.e, layer.num_heads
        layer = self.model.blocks[0].attr_attention
        return (batch, n, m), self.num_attrs, self.f, layer.num_heads

    def _reserve(self, name: str, count: int, dtype=None) -> None:
        self.workspace.reserve(name, count,
                               self.dtype if dtype is None else dtype)

    def _view(self, name: str, shape: tuple[int, ...], dtype=None
              ) -> np.ndarray:
        return self.workspace.view(name, shape,
                                   self.dtype if dtype is None else dtype)

    def _reserve_buffers(self) -> None:
        batch, n, m, e, f = self.batch, self.n, self.m, self.e, self.f
        cells = batch * n * m
        self._reserve("h", cells * e)
        block = self.model.blocks[0]
        if getattr(block, "use_user", False):
            self._reserve("h_user", cells * e)
        self._reserve("logits", batch * m)
        self._reserve("out", batch * m)
        # Encoder scratch: the batch's ids and attribute rows end to end,
        # then one context's ratings at a time.
        self._reserve("user_ids", batch * n, np.int64)
        self._reserve("item_ids", batch * m, np.int64)
        self._reserve("idx", batch * max(n, m), np.int64)
        self._reserve("xu", batch * n * self.hu_f)
        self._reserve("xi", batch * m * self.hi_f)
        self._reserve("rflt", n * m, self.ratings_dtype)
        self._reserve("ilev", n * m, np.int64)
        self._reserve("emb", n * m * f)
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
            count = prod(bshape)
            if kind == "attr":
                count = F.TokenMajorScratch.lanes(count)
                wide_count = count * e
            scores_count = max(scores_count, count * heads * t * t)
            red_count = max(red_count, count * heads * t, count * t)
        for name in ("k", "v"):
            self._reserve(name, x_count)
        for name in ("normed", "attn", "q", "ctx"):
            self._reserve(name, wide_count)
        self._reserve("qkv", 3 * wide_count)
        self._reserve("scores", scores_count)
        self._reserve("red", red_count)
        # Target-row tail: every tail buffer fits in the arenas above
        # (n >= 2 whenever the tail exists); the tail's activation lives in
        # ``h_user``, which the tail never uses as MBU output, or in its own
        # small arena when MBU is ablated.
        if not getattr(block, "use_user", False) and n > 1:
            self._reserve("h_row", batch * m * e)

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
        batch, n, m, e = self.batch, self.n, self.m, self.e
        use_user = getattr(self.model.blocks[0], "use_user", False)
        self.h = self._view("h", (batch, n, m, e))
        self.h_user = (self._view("h_user", (batch, m, n, e))
                       if use_user else None)
        # The tail mirrors the full layout with one user row per context;
        # at n == 1 the full steps already compute the target row.
        self.h_row = self.h if n == 1 else self._view(
            "h_user" if self.h_user is not None else "h_row", (batch, 1, m, e))
        self.logits = self._view("logits", (batch, 1, m, 1))
        self._logits_nm = self.logits.reshape(batch, m)
        self.out = self._view("out", (batch, m))
        # The tail's gather indices are the plan's own: the bases are set
        # once here, where a shared arena would see other plans' writes.
        self._rows = np.zeros(batch, dtype=np.int64)
        self._row_base = np.arange(batch) * n
        self._row_index = np.zeros(batch, dtype=np.int64)
        self._score_base = self._score_index = None
        if use_user:
            heads = self._attn_shapes("user")[3]
            self._score_base = np.arange(batch * m * heads).reshape(
                batch, m * heads) * n
            self._score_index = np.zeros_like(self._score_base)

    def _make_encode_slot(self, cell: np.ndarray, n: int, m: int) -> _EncodeSlot:
        """Encoder views for one ``(n_full, m_full, e)`` slab of ``h``,
        filled over its leading ``(n, m)`` region; any padding strips beyond
        that region are zeroed on every encode."""
        slot = _EncodeSlot()
        slot.cell = cell[:n, :m]
        slot.user_block = slot.cell[:, :, : self.hu_f]
        slot.item_block = slot.cell[:, :, self.hu_f: self.hu_f + self.hi_f]
        slot.rat = slot.cell[:, :, self.hu_f + self.hi_f:]
        slot.rflt = self._view("rflt", (n, m), self.ratings_dtype)
        slot.ilev = self._view("ilev", (n, m), np.int64)
        slot.emb = self._view("emb", (n, m, self.f))
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
        step.normed = self._view("normed", xshape)
        step.sq = self._view("scores", xshape)       # dead before scores live
        step.red_ln = self._view("red", (*bshape, t, 1))
        step.qkv = self._view("qkv", (*bshape, t, 3 * d))
        head_shape = (*bshape, heads, t, head_dim)
        step.q = self._view("q", head_shape)
        step.k = self._view("k", head_shape)
        step.v = self._view("v", head_shape)
        step.ctx = self._view("ctx", head_shape)
        step.scores = self._view("scores", (*bshape, heads, t, t))
        step.red = self._view("red", (*bshape, heads, t, 1))
        step.attn_out = self._view("attn", xshape)
        return step

    def _bind_row_attention(self, block) -> _RowAttnStep:
        """The last block's MBU bound for target rows (see :meth:`_row_tail`)."""
        batch, n, m, e = self.batch, self.n, self.m, self.e
        norm = block.user_norm if block.use_layer_norm else None
        full = self._bind_attention(block.user_attention, norm, "user",
                                    self.h.swapaxes(-3, -2), None,
                                    block.use_residual)
        heads = full.num_heads
        rows = batch * m
        step = _RowAttnStep()
        step.full = full
        step.residual = block.use_residual
        step.score_rows = self._score_index.reshape(-1)
        step.probs = self._view("normed", (batch, m, heads, n))
        # The projection operand is 2-D with at least two rows: a one-row
        # GEMM would take numpy's vector path and round differently.
        step.attn_rows = self._view("attn", (max(rows, 2), e))
        step.merged = step.attn_rows[:rows].reshape(rows * heads, e // heads)
        step.proj = self._view("normed", (max(rows, 2), e))
        step.proj_rows = step.proj[:rows].reshape(batch, m, e)
        step.h_rows = self.h.reshape(-1, m, e)
        step.row_index = self._row_index
        step.out = self.h_row.reshape(batch, m, e)
        return step

    def _bind_mba(self, n: int) -> F.TokenMajorScratch:
        """Token-major MBA scratch over the attention arenas, for ``n``
        user rows (shared by every block: the MBA steps never overlap)."""
        bshape, t, d, heads = self._attn_shapes("attr", n)
        lanes = F.TokenMajorScratch.lanes(prod(bshape))
        x_shape = (d, t, lanes)
        normed = self._view("normed", x_shape)
        return F.TokenMajorScratch(
            xt=self._view("attn", x_shape), xhat=normed, normed=normed,
            stats=self._view("red", (t, lanes)),
            qkv=self._view("qkv", (3 * d, t, lanes)),
            scores=self._view("scores", (heads, t, t, lanes)),
            red=self._view("red", (heads, t, 1, lanes)),
            ctx=self._view("ctx", x_shape), y=self._view("q", x_shape))

    @staticmethod
    def _exec_mba(step: _MbaStep, program) -> None:
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
    def _exec_attn(step: _AttnStep, program) -> None:
        at = step.attention
        InferencePlan._project_qkv(step)
        F.mha_qkv_into(step.qkv, step.num_heads, step.attn_out, step.q,
                       step.k, step.v, step.scores, step.red, step.ctx,
                       spans=program.attn_spans[step.key])
        bias = at.w_output.bias
        F.linear_into(step.attn_out, at.w_output.weight.data, step.normed,
                      bias=None if bias is None else bias.data)
        if step.residual:
            np.add(step.x, step.normed, out=step.out_arr)
        else:
            np.copyto(step.out_arr, step.normed)

    @staticmethod
    def _exec_row_attn(step: _RowAttnStep, program) -> None:
        full = step.full
        at = full.attention
        InferencePlan._project_qkv(full)
        F.mha_qkv_rows_into(
            full.qkv, full.num_heads, step.merged, full.q, full.k, full.v,
            full.scores, full.ctx, step.score_rows, step.probs,
            program.attn_spans["user"], program.row_softmax)
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
    def _exec_copy(step, program) -> None:
        np.copyto(*step)

    @staticmethod
    def _exec_gather(step, program) -> None:
        src, index, out = step
        np.take(src, index, axis=0, out=out, mode="clip")

    def _build_steps(self):
        """Flatten the K HIM blocks into ``(span name, runner, step)``
        triples: every block's full steps, except that the last block runs
        as :meth:`_row_tail` when ``n > 1`` (at ``n == 1`` the only row is
        the target, and ``h_row`` aliases ``h``).

        The activation ping-pongs between ``h`` (row-major ``(B, n, m, e)``)
        and ``h_user`` (``(B, m, n, e)``): MBU reads a transposed view of
        ``h`` and lands in ``h_user``; MBI reads the transposed view back and
        lands in ``h``; MBA runs in place on ``h``.  Ablated blocks insert an
        explicit copy so MBA always sees contiguous ``h`` (mirroring the
        reshape-copy the Tensor path performs on a non-contiguous input).
        """
        batch, n, m = self.batch, self.n, self.m
        steps = []
        mba_scratch = (self._bind_mba(n) if "attr" in self._enabled_kinds()
                       else None)
        blocks = list(self.model.blocks)
        tail = blocks.pop() if n > 1 else None
        for block in blocks:
            in_h = True  # activation currently lives in self.h
            if block.use_user:
                x = self.h.swapaxes(-3, -2)          # (B, m, n, e) view
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
                mba.x = self.h.reshape(batch, n, m, self.num_attrs, self.f)
                mba.scratch = mba_scratch
                steps.append(("mba", self._exec_mba, mba))
            if not in_h:
                steps.append(("mbu", self._exec_copy,
                              (self.h, self.h_user.swapaxes(-3, -2))))
        if tail is not None:
            steps += self._row_tail(tail)
        return steps

    def _row_tail(self, block):
        """The last block computed for one target row per context.

        A prediction reads only row ``rows[b]`` of context ``b``'s output.
        MBI, MBA and the decoder act within a user row, so they run on the
        ``(B, 1, m, e)`` target rows of ``h_row`` with the same per-row
        call shapes as the full steps.  MBU mixes rows, so its layer norm,
        QKV projection and ``q kᵀ`` / ``probs·v`` GEMMs stay full-size;
        only the softmax, head merge, output projection and residual run
        on the target rows (:func:`repro.nn.functional.mha_qkv_rows_into`).
        """
        batch, m = self.batch, self.m
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
            mba.x = h_row.reshape(batch, 1, m, self.num_attrs, self.f)
            mba.scratch = self._bind_mba(1)
            steps.append(("mba", self._exec_mba, mba))
        return steps

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _encode(self, contexts, program: _Program) -> None:
        """Fill every context's slab of ``h`` through ``program``'s views.

        The attribute rows of the whole batch come from one gather pair
        per attribute table over the concatenated ids; each slot then
        broadcasts its slice of them into its cells.
        """
        enc = self.encoder
        if self.hu_f:
            np.concatenate([c.users for c in contexts], out=program.user_ids)
            self._gather(enc._user_attributes, enc.user_transforms,
                         program.user_ids, program.user_idx, program.xu)
        if self.hi_f:
            np.concatenate([c.items for c in contexts], out=program.item_ids)
            self._gather(enc._item_attributes, enc.item_transforms,
                         program.item_ids, program.item_idx, program.xi)
        for slot, context in zip(program.slots, contexts):
            self._encode_into(context, slot)

    def _gather(self, attributes, transforms, ids, idx, rows) -> None:
        """``rows[i] = concat_k transforms[k][attributes[ids[i], k]]``."""
        f = self.f
        for k, transform in enumerate(transforms):
            np.take(attributes[:, k], ids, out=idx)
            np.take(transform.weight.data, idx, axis=0,
                    out=rows[:, k * f:(k + 1) * f])

    def _encode_into(self, context, slot: _EncodeSlot) -> None:
        """Fill one context's slab of ``h`` in place through ``slot``'s views
        (its attribute rows already gathered into ``slot.xu`` / ``slot.xi``)."""
        enc = self.encoder
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

    def run(self, contexts, rows) -> np.ndarray:
        """Forward ``contexts`` and return the workspace-backed ``(B, m)``
        target rows, ``rows[b]`` of context ``b``.

        ``contexts`` may be smaller than the plan's ``(n, m)``; each is
        zero-padded into its slab.  Contexts must arrive grouped so equal
        shapes are contiguous (sort descending by ``(n, m)`` — see
        :func:`forward_inference_packed`).  Each target row is bitwise
        identical to that row of an unpadded one-context forward:
        elementwise ops, layer norms, the (M≥8, N≥8) linears and the
        per-cell MBA attention are padding-stable full-batched, while the
        MBU/MBI attention cores and the N=1 decoder GEMM execute per shape
        group on sliced views whose reduction lengths equal the real ones.
        Columns past a context's ``m`` are stale garbage — never read them.
        """
        if len(contexts) != self.batch:
            raise ValueError(
                f"plan built for batch {self.batch}, got {len(contexts)}")
        shapes = tuple((context.n, context.m) for context in contexts)
        program = self._programs.get(shapes)
        if program is None:
            program = self._compile(shapes)
            if len(self._programs) >= _MAX_PROGRAMS:
                self._programs.clear()
            self._programs[shapes] = program
        self._set_rows(rows, contexts)
        with _spans.span("encode"):
            self._encode(contexts, program)
        for name, execute, step in self._steps:
            with _spans.span(name):
                execute(step, program)
        with _spans.span("decode"):
            self._decode(program.dec_spans)
        return self.out

    def _decode(self, dec_spans) -> None:
        dec = self.model.decoder
        # The decoder GEMM has N=1, whose OpenBLAS kernel is not
        # M-padding-stable — run it per shape group on sliced views (each
        # batch slice is a contiguous (m_i, e) block), then add the bias
        # over the full buffer exactly like linear_into.
        for h_s, out_s in dec_spans:
            np.matmul(h_s, dec.weight.data, out=out_s)
        if dec.bias is not None:
            self.logits += dec.bias.data
        F.sigmoid_rescale_into(self._logits_nm, self._alpha, self.out)

    def _compile(self, shapes) -> _Program:
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
                        "contexts must be grouped by shape "
                        "(sort before calling run)")
                seen.add((n_i, m_i))
                groups.append((b, b + 1, n_i, m_i))
        slabs = self.h.reshape(-1, n, m, self.e)
        program = _Program()
        program.slots = [self._make_encode_slot(slabs[b], n_i, m_i)
                         for b, (n_i, m_i) in enumerate(shapes)]
        users = sum(n_i for n_i, _ in shapes)
        items = sum(m_i for _, m_i in shapes)
        program.user_ids = self._view("user_ids", (users,), np.int64)
        program.item_ids = self._view("item_ids", (items,), np.int64)
        program.user_idx = self._view("idx", (users,), np.int64)
        program.item_idx = self._view("idx", (items,), np.int64)
        program.xu = self._view("xu", (users, self.hu_f))
        program.xi = self._view("xi", (items, self.hi_f))
        u = i = 0
        for slot, (n_i, m_i) in zip(program.slots, shapes):
            slot.xu = program.xu[u:u + n_i]
            slot.xi = program.xi[i:i + m_i]
            u += n_i
            i += m_i
        kinds = self._enabled_kinds()
        program.attn_spans = {kind: self._span_views(kind, groups)
                              for kind in kinds if kind != "attr"}
        # The tail: one (real) user row per context.
        row_groups = [(b0, b1, 1, m_i) for b0, b1, _, m_i in groups]
        if "item" in kinds:
            program.attn_spans["row_item"] = self._span_views(
                "item", row_groups, n=1)
        program.row_softmax = None
        if "user" in kinds:
            heads = self._attn_shapes("user")[3]
            probs = self._view("normed", (len(shapes), m, heads, n))
            red = self._view("red", (len(shapes), m, heads, 1))
            program.row_softmax = [(probs[b0:b1, :m_i, :, :n_i],
                                    red[b0:b1, :m_i])
                                   for b0, b1, n_i, m_i in groups]
        program.dec_spans = [(self.h_row[b0:b1, :, :m_i, :],
                              self.logits[b0:b1, :, :m_i, :])
                             for b0, b1, _, m_i in groups]
        return program

    def _span_views(self, kind: str, groups, n: int | None = None):
        """Per-group sliced (q, kᵀ, v, scores, red, ctx) views for one kind."""
        bshape, t, d, heads = self._attn_shapes(kind, n)
        head_dim = d // heads
        head_shape = (*bshape, heads, t, head_dim)
        q = self._view("q", head_shape)
        k = self._view("k", head_shape)
        v = self._view("v", head_shape)
        ctx = self._view("ctx", head_shape)
        scores = self._view("scores", (*bshape, heads, t, t))
        red = self._view("red", (*bshape, heads, t, 1))
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

    def matches(self, model, batch: int, n: int, m: int,
                ratings_dtype) -> bool:
        return (self.model is model
                and self.batch == batch
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
# several batch sizes × several buckets headroom.  Plans hold views into the
# thread's one workspace, so the LRU bounds only their views and indices.
_MAX_PLANS = 16
_MAX_PROGRAMS = 32


def generation() -> int:
    """Current plan generation; plans built under older generations are stale."""
    return _GENERATION


def bump_generation() -> None:
    """Invalidate every cached plan in every thread (lazily, on next lookup).

    Called by :class:`repro.serve.ModelRegistry` on hot swaps so no stale
    plan keeps a retired model alive.  The threads' workspaces stay.
    """
    global _GENERATION
    with _GEN_LOCK:
        _GENERATION += 1


class _ThreadPlans:
    """One thread's plan LRU, its workspace and the workspace's bytes.

    ``nbytes`` is written only by the owning thread, so other threads sum
    it for the gauge without walking a workspace that may be growing.
    """

    __slots__ = ("plans", "generation", "workspace", "nbytes", "__weakref__")

    def __init__(self):
        self.plans: OrderedDict = OrderedDict()
        self.generation = -1
        self.workspace = Workspace()
        self.nbytes = 0


# Every live thread's workspace, for the ``infer.workspace_bytes`` gauge.  A
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


def _workspace_changed(state: _ThreadPlans) -> None:
    state.nbytes = state.workspace.nbytes
    _publish_workspace_bytes()


def clear_cache() -> None:
    """Drop this thread's cached plans and free its workspace."""
    state = _CACHE.state
    state.plans.clear()
    state.workspace = Workspace()
    _workspace_changed(state)


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


def get_plan(model, batch: int, n: int, m: int, ratings_dtype) -> InferencePlan:
    """Fetch or build the plan for (model, batch, n, m); LRU-cached per thread.

    A build binds into the thread's workspace.  When it grows an arena,
    the thread's other plans are dropped, freeing the old arenas they keep.
    """
    state = _CACHE.state
    gen = generation()
    if state.generation != gen:
        state.plans.clear()
        state.generation = gen
    key = (id(model), batch, n, m)
    registry = _metrics.get_registry()
    plan = state.plans.get(key)
    if plan is not None and plan.matches(model, batch, n, m, ratings_dtype):
        state.plans.move_to_end(key)
        registry.counter("infer.plan_cache.hit").inc()
        return plan
    registry.counter("infer.plan_cache.miss").inc()
    workspace = state.workspace
    regrown = workspace.regrown
    with _spans.span("infer/plan_build"):
        plan = InferencePlan(model, batch, n, m, ratings_dtype, workspace)
    if workspace.regrown != regrown:
        state.plans.clear()
    state.plans[key] = plan
    state.plans.move_to_end(key)
    while len(state.plans) > _MAX_PLANS:
        state.plans.popitem(last=False)
    _workspace_changed(state)
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


def _run(model, contexts, n: int, m: int, rows) -> np.ndarray:
    """The engine's one program: ``contexts`` (grouped by shape) padded
    into the cached ``(B, n, m)`` plan; returns its ``(B, m)`` target rows."""
    ratings_dtype = contexts[0].ratings.dtype
    for context in contexts:
        if context.ratings.dtype != ratings_dtype:
            raise ValueError("contexts must share a ratings dtype")
    plan = get_plan(model, len(contexts), n, m, ratings_dtype)
    with _spans.span("infer/forward"):
        return plan.run(contexts, rows)


def forward_inference(model, context, *, rows) -> np.ndarray:
    """Run one context as a batch of one; ``(1, m)`` target-row ratings.

    ``rows=(r,)`` names the user row a prediction reads: only that row is
    computed through the last block (the target-row tail), bitwise equal
    to row ``r`` of the Tensor forward's ``(n, m)`` matrix.  The result is
    a view into this thread's workspace — valid until the next engine call
    on this thread.  Copy it to retain it.
    """
    return _run(model, (context,), context.n, context.m, rows)


def forward_inference_many(model, contexts, *, rows) -> np.ndarray:
    """Batched engine forward over same-shape contexts; ``(B, m)`` ratings.

    ``rows[b]`` is the target user row of ``contexts[b]``, and row ``b`` of
    the result is bitwise equal to that row of the context's one-context
    Tensor forward.  Mixed shapes raise ``ValueError`` (pad them with
    :func:`forward_inference_packed`).  The result is workspace-backed (see
    :func:`forward_inference`).
    """
    if not contexts:
        raise ValueError("forward_inference_many needs at least one context")
    n, m = contexts[0].n, contexts[0].m
    if any(context.n != n or context.m != m for context in contexts):
        raise ValueError("forward_inference_many requires equally-sized "
                         "contexts (use forward_inference_packed)")
    return _run(model, contexts, n, m, rows)


def forward_inference_packed(model, contexts, n: int, m: int, *, rows):
    """Padded mixed-shape engine forward through one ``(B, n, m)`` plan.

    Pads every context into an ``(n, m)`` slab of a single stacked plan and
    executes once, with the attention cores and decoder sliced per shape
    group so each target row stays bitwise identical to an unpadded forward
    of the same context (see :meth:`InferencePlan.run`; float32 shares the
    same guarantee on the kernels this engine generates).

    Returns ``(outputs, slots)``: ``outputs`` is the workspace-backed
    ``(B, m)`` target rows and ``slots[i]`` the row holding ``contexts[i]``
    (contexts are re-ordered internally so equal shapes sit in contiguous
    runs).  ``rows[i]`` is the target user row of ``contexts[i]``, and only
    ``outputs[slots[i]][:contexts[i].m]`` is meaningful.
    """
    if not contexts:
        raise ValueError("forward_inference_packed needs at least one context")
    if len(rows) != len(contexts):
        raise ValueError(f"got {len(rows)} target rows for "
                         f"{len(contexts)} contexts")
    order = sorted(range(len(contexts)),
                   key=lambda i: (-contexts[i].n, -contexts[i].m))
    outputs = _run(model, [contexts[i] for i in order], n, m,
                   [rows[i] for i in order])
    slots = [0] * len(contexts)
    for row, index in enumerate(order):
        slots[index] = row
    return outputs, slots
