"""Functional operations over :class:`repro.nn.Tensor`.

These free functions complement the methods on ``Tensor`` with multi-input
operations (stack, concatenate), numerically stable softmax / log-softmax,
activation functions, and the loss functions used by the paper (MSE on masked
ratings) and the baselines (binary cross-entropy, etc.).

The hot ops of the HIRE forward/backward — :func:`layer_norm`, :func:`gelu`,
:func:`linear` and the attention cores :func:`multi_head_attention_qkv` /
:func:`attribute_attention` — each run as a *single* autograd node with an
analytic backward, instead of the many small nodes their unfused
compositions would record.  The forward of :func:`linear`,
:func:`layer_norm` and both attention cores is the matching ``*_into``
kernel of the graph-free inference engine, run on fresh buffers, so the
engine and the Tensor forward share one kernel set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .tensor import SparseRowGrad, Tensor

__all__ = [
    "stack",
    "concatenate",
    "softmax",
    "log_softmax",
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "layer_norm",
    "linear",
    "multi_head_attention_qkv",
    "attribute_attention",
    "TokenMajorScratch",
    "mse_loss",
    "masked_mse_loss",
    "bce_loss",
    "l2_penalty",
    "dropout",
    "embedding_lookup",
    "scatter_rows",
    "pad_to",
    "linear_into",
    "layer_norm_into",
    "mha_qkv_into",
    "attribute_attention_into",
    "sigmoid_rescale_into",
]

def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors of identical shape along a new axis."""
    datas = [t.data for t in tensors]
    out_data = np.stack(datas, axis=axis)

    def backward(g):
        slices = np.moveaxis(g, axis, 0)
        return tuple((t, slices[i]) for i, t in enumerate(tensors))

    return Tensor._from_op(out_data, tuple(tensors), backward)


def concatenate(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an existing axis."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for i, t in enumerate(tensors):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append((t, g[tuple(index)]))
        return tuple(grads)

    return Tensor._from_op(out_data, tuple(tensors), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with a fused backward."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * probs).sum(axis=axis, keepdims=True)
        return ((x, probs * (g - dot)),)

    return Tensor._from_op(probs, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    probs = np.exp(out_data)

    def backward(g):
        return ((x, g - probs * g.sum(axis=axis, keepdims=True)),)

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation), one fused node."""
    xd = x.data
    t = np.tanh(_GELU_C * (xd + _GELU_A * xd * xd * xd))

    def backward(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        return ((x, g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner)),)

    return Tensor._from_op(0.5 * xd * (1.0 + t), (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis as one fused autograd node;
    the forward is :func:`layer_norm_into`."""
    xd = x.data
    out = np.empty(xd.shape, np.result_type(xd, gamma.data, beta.data))
    xhat = np.empty(xd.shape, xd.dtype)   # also the square scratch
    inv_std = np.empty((*xd.shape[:-1], 1), xd.dtype)
    layer_norm_into(xd, gamma.data, beta.data, out, xhat, inv_std, eps=eps,
                    xhat=xhat)

    def backward(g):
        # d gamma / d beta: _unbroadcast folds the leading axes.
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
        dx = inv_std * (dxhat - m1 - xhat * m2)
        return ((x, dx), (gamma, g * xhat), (beta, g))

    return Tensor._from_op(out, (x, gamma, beta), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight (+ bias)`` over the last axis as one fused node; the
    forward is :func:`linear_into`.

    ``weight`` is 2-D ``(in, out)``; ``x`` may carry arbitrary leading axes.
    """
    out_data = np.empty((*x.shape[:-1], weight.shape[-1]),
                        np.result_type(x.data, weight.data))
    linear_into(x.data, weight.data, out_data,
                bias=None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        # Both GEMMs run 2-D over the folded leading axes: a stacked
        # ``g @ Wᵀ`` makes one small BLAS call per leading index.
        x2 = x.data.reshape(-1, x.data.shape[-1])
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ weight.data.T).reshape(x.shape)
        gw = x2.T @ g2
        if bias is None:
            return ((x, gx), (weight, gw))
        return ((x, gx), (weight, gw), (bias, g2.sum(axis=0)))

    return Tensor._from_op(out_data, parents, backward)


def multi_head_attention_qkv(qkv: Tensor, num_heads: int,
                             need_weights: bool = False):
    """Multi-head attention over a packed QKV projection, one fused node.

    ``qkv`` is ``(..., t, 3d)`` — the output of one ``(d, 3d)`` projection
    whose columns are ``[W_q | W_k | W_v]``.  The forward is
    :func:`mha_qkv_into` (split heads, attend with the 1/√head_dim scale
    folded into ``q``, merge heads); the backward assembles the packed
    ``(..., t, 3d)`` gradient in one allocation.  ``need_weights`` also
    returns the attention as ``(..., heads, t, t)`` (outside the graph).
    """
    *lead, t, packed = qkv.shape
    d = packed // 3
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    dtype = qkv.data.dtype
    head_shape = (*lead, num_heads, t, head_dim)
    q, kd, vd, ctx = (np.empty(head_shape, dtype) for _ in range(4))
    probs = np.empty((*lead, num_heads, t, t), dtype)
    red = np.empty((*lead, num_heads, t, 1), dtype)
    out = np.empty((*lead, t, d), dtype)
    mha_qkv_into(qkv.data, num_heads, out, q, kd, vd, probs, red, ctx)

    def backward(g):
        # The unscaled q, read from the packed input: ``q`` carries the
        # scale, and ``(dsᵀ @ q) * scale`` must round like the unscaled form.
        qd = _head_split(qkv.data, num_heads)[0]
        gh = g.reshape(*lead, t, num_heads, head_dim).swapaxes(-3, -2)
        dv = np.swapaxes(probs, -1, -2) @ gh
        dp = gh @ np.swapaxes(vd, -1, -2)
        ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
        dq = (ds @ kd) * scale
        dk = (np.swapaxes(ds, -1, -2) @ qd) * scale
        dqkv = np.empty(qkv.shape, dtype=g.dtype)
        view = dqkv.reshape(*lead, t, 3, num_heads, head_dim)
        view[..., 0, :, :] = dq.swapaxes(-3, -2)
        view[..., 1, :, :] = dk.swapaxes(-3, -2)
        view[..., 2, :, :] = dv.swapaxes(-3, -2)
        return ((qkv, dqkv),)

    result = Tensor._from_op(out, (qkv,), backward)
    return (result, probs) if need_weights else result


class TokenMajorScratch(NamedTuple):
    """Buffers of :func:`attribute_attention_into`, laid out token-major
    with the cell axis innermost and padded to :meth:`lanes` columns.

    ``xhat`` and ``normed`` may be the same array (the engine aliases them;
    the autograd node keeps ``xhat`` for its backward).  ``stats`` holds the
    layer-norm mean and then ``1/std``; ``red`` the softmax row max and then
    the row sum; ``y`` the layer-norm square scratch and then the output
    projection.
    """

    xt: np.ndarray       # (d, t, lanes) token-major input
    xhat: np.ndarray     # (d, t, lanes) normalised input
    normed: np.ndarray   # (d, t, lanes) layer-norm output
    stats: np.ndarray    # (t, lanes)
    qkv: np.ndarray      # (3d, t, lanes)
    scores: np.ndarray   # (heads, t, t, lanes) scores, then exp(s - max)
    red: np.ndarray      # (heads, t, 1, lanes)
    ctx: np.ndarray      # (d, t, lanes) == (heads, head_dim, t, lanes)
    y: np.ndarray        # (d, t, lanes)

    @staticmethod
    def lanes(cells: int) -> int:
        """``cells`` rounded up to a multiple of :data:`_CELL_LANES`."""
        return -(-cells // _CELL_LANES) * _CELL_LANES

    @classmethod
    def empty(cls, cells: int, t: int, d: int, heads: int,
              dtype) -> "TokenMajorScratch":
        lanes = cls.lanes(cells)
        x_shape = (d, t, lanes)
        return cls(
            xt=np.empty(x_shape, dtype), xhat=np.empty(x_shape, dtype),
            normed=np.empty(x_shape, dtype), stats=np.empty((t, lanes), dtype),
            qkv=np.empty((3 * d, t, lanes), dtype),
            scores=np.empty((heads, t, t, lanes), dtype),
            red=np.empty((heads, t, 1, lanes), dtype),
            ctx=np.empty(x_shape, dtype), y=np.empty(x_shape, dtype))


# Token-major buffers carry a multiple of 16 cells.  OpenBLAS computes the
# rows of a GEMM that fall in a partial M-panel with edge kernels whose sums
# round differently, and the token-major projections put the cell axis on
# that dimension: padding to whole panels keeps every real cell's bytes
# independent of how many cells share the call.  It also keeps the cell axis
# the innermost loop of every reduction (a length-1 axis would be dropped,
# and numpy would reduce the key axis pairwise instead of in order).
_CELL_LANES = 16


def attribute_attention(x: Tensor, w_qkv: Tensor, w_out: Tensor,
                        num_heads: int, gamma: Tensor | None = None,
                        beta: Tensor | None = None, bias: Tensor | None = None,
                        residual: bool = True, eps: float = 1e-5,
                        need_weights: bool = False):
    """Pre-norm multi-head self-attention over short token axes, one node.

    ``x`` is ``(..., t, d)``: every leading index is a *cell* whose ``t``
    tokens attend to each other — HIM's MBA, where a cell is a (user, item)
    pair and its tokens are the ``h`` attribute embeddings.  Computes
    ``x + (attn(layer_norm(x)) @ w_out + bias)``, with the layer norm used
    when ``gamma``/``beta`` are given and the residual when ``residual``.

    The forward is :func:`attribute_attention_into` (token-major, cell axis
    innermost), so the inference engine's replay is bitwise identical.
    ``need_weights`` also returns the attention as ``(..., heads, t, t)``
    (outside the graph).
    """
    *lead, t, d = x.shape
    cells = math.prod(lead)
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    dtype = x.data.dtype
    scratch = TokenMajorScratch.empty(cells, t, d, num_heads, dtype)
    lanes = scratch.xt.shape[-1]
    out = np.empty(x.shape, dtype)
    norm = gamma is not None
    attribute_attention_into(
        x.data, w_qkv.data, w_out.data, num_heads, out, scratch,
        gamma=gamma.data if norm else None, beta=beta.data if norm else None,
        bias=None if bias is None else bias.data, residual=residual, eps=eps)
    parents = (x, w_qkv, w_out)
    if norm:
        parents += (gamma, beta)
    if bias is not None:
        parents += (bias,)

    def backward(g):
        # Padding lanes get a zero upstream gradient, so they add exact
        # zeros to every parameter gradient.
        n2 = t * lanes
        heads5 = (num_heads, head_dim, t, lanes)
        gt = np.zeros((d, t, lanes), dtype=dtype)
        gt[..., :cells] = g.reshape(cells, t, d).transpose(2, 1, 0)
        g2 = gt.reshape(d, n2)
        grads = [(w_out, scratch.ctx.reshape(d, n2) @ g2.T)]
        if bias is not None:
            grads.append((bias, g2.sum(axis=1)))
        # Attention core: ``scores`` holds exp(s - max), ``red`` its row sums.
        dctx = (w_out.data @ g2).reshape(heads5)
        probs = scratch.scores / scratch.red
        q, k, v = scratch.qkv.reshape(3, *heads5)   # q carries the scale
        dqkv = np.empty((3, *heads5), dtype=dtype)
        np.einsum("nabc,nxac->nxbc", probs, dctx, out=dqkv[2])
        ds = np.einsum("nxac,nxbc->nabc", dctx, v)
        # sum_b dP·P == sum_x dctx·ctx, on the t-times smaller context.
        ds -= np.einsum("nxac,nxac->nac", dctx,
                        scratch.ctx.reshape(heads5))[:, :, None, :]
        ds *= probs
        np.einsum("nabc,nxbc->nxac", ds, k, out=dqkv[0])
        dqkv[0] *= scale
        np.einsum("nabc,nxac->nxbc", ds, q, out=dqkv[1])
        dqkv2 = dqkv.reshape(3 * d, n2)
        src = scratch.normed if norm else scratch.xt
        grads.append((w_qkv, src.reshape(d, n2) @ dqkv2.T))
        dx = (w_qkv.data @ dqkv2).reshape(d, t, lanes)
        if norm:
            xhat = scratch.xhat
            grads.append((gamma, (dx * xhat).sum(axis=(1, 2))))
            grads.append((beta, dx.sum(axis=(1, 2))))
            dxhat = dx * gamma.data[:, None, None]
            m1 = dxhat.mean(axis=0)
            m2 = np.mean(dxhat * xhat, axis=0)
            dx = scratch.stats * (dxhat - m1 - xhat * m2)
        if residual:
            dx += gt
        grads.append((x, dx[..., :cells].transpose(2, 1, 0).reshape(x.shape)))
        return tuple(grads)

    result = Tensor._from_op(out, parents, backward)
    if not need_weights:
        return result
    probs = (scratch.scores / scratch.red)[..., :cells].transpose(3, 0, 1, 2)
    return result, probs.reshape(*lead, num_heads, t, t)


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=prediction.data.dtype))
    diff = prediction - target
    return (diff * diff).mean()


def masked_mse_loss(prediction: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """MSE over entries where ``mask`` is True (Eq. 17 of the paper).

    ``mask`` marks the query ratings Q whose ground truth was hidden from the
    model; the loss averages squared error over exactly those cells.  The
    mask and target follow the prediction's dtype (no float64 upcasts on the
    float32 path).
    """
    dtype = prediction.data.dtype
    mask = np.asarray(mask, dtype=dtype)
    count = mask.sum()
    if count == 0:
        raise ValueError("masked_mse_loss requires at least one masked entry")
    diff = prediction - Tensor(np.asarray(target, dtype=dtype))
    return (diff * diff * Tensor(mask)).sum() * (1.0 / count)


def bce_loss(prediction: Tensor, target: np.ndarray, eps: float = 1e-9) -> Tensor:
    """Binary cross entropy on probabilities in (0, 1)."""
    target_t = Tensor(np.asarray(target, dtype=prediction.data.dtype))
    clipped = prediction.clip(eps, 1.0 - eps)
    losses = -(target_t * clipped.log() + (1.0 - target_t) * (1.0 - clipped).log())
    return losses.mean()


def l2_penalty(parameters) -> Tensor:
    """Sum of squared parameter values, for weight decay done as a loss term."""
    total = None
    for p in parameters:
        term = (p * p).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - rate)``.

    In eval mode (or at rate 0) this is the identity — no mask is ever
    allocated.  The keep-mask follows ``x.dtype``, so the float32 path never
    pays a float64 mask multiply.
    """
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype)
    mask /= keep
    return x * Tensor(mask)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix.

    The backward reduces the incoming gradient over the *unique* indices
    (sort + segmented ``np.add.reduceat``) and hands the autograd sweep a
    row-sparse :class:`~repro.nn.tensor.SparseRowGrad` — no full-size zero
    table and no elementwise ``np.add.at`` over duplicate rows.
    """
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def backward(g):
        width = table.data.shape[-1]
        flat = indices.reshape(-1)
        g2 = g.reshape(-1, width)
        uniq, inv, counts = np.unique(flat, return_inverse=True, return_counts=True)
        if uniq.size == 0:
            return ((table, SparseRowGrad(uniq, g2)),)
        order = np.argsort(inv, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        sums = np.add.reduceat(g2[order], starts, axis=0)
        return ((table, SparseRowGrad(uniq, sums)),)

    return Tensor._from_op(out_data, (table,), backward)


def scatter_rows(values: Tensor, rows: np.ndarray, num_rows: int,
                 fill: Tensor | None = None) -> Tensor:
    """Scatter ``values`` (k, f) into a fresh ``(num_rows, f)`` buffer.

    Rows not listed in ``rows`` hold ``fill`` (broadcast, e.g. a learned mask
    token) or zeros.  ``rows`` must be unique — the op exists for sparse
    encodes where each destination row is written at most once, so the
    backward is a plain gather (no ``np.add.at``).
    """
    rows = np.asarray(rows)
    width = values.shape[-1]
    if fill is None:
        out_data = np.zeros((num_rows, width), dtype=values.data.dtype)
    else:
        out_data = np.empty((num_rows, width), dtype=values.data.dtype)
        out_data[...] = fill.data
    out_data[rows] = values.data
    parents = (values,) if fill is None else (values, fill)

    def backward(g):
        grads = [(values, g[rows])]
        if fill is not None:
            kept = np.ones(num_rows, dtype=bool)
            kept[rows] = False
            grads.append((fill, g[kept].sum(axis=0)))
        return tuple(grads)

    return Tensor._from_op(out_data, parents, backward)


def pad_to(x: np.ndarray, length: int, value: float = 0.0) -> np.ndarray:
    """Pad a 1-D array to ``length`` with ``value`` (no autograd; data prep)."""
    if len(x) >= length:
        return x[:length]
    out = np.full(length, value, dtype=x.dtype)
    out[: len(x)] = x
    return out


# --------------------------------------------------------------------------- #
# Forward kernels (``out=`` buffers, shared by autograd and the engine)
# --------------------------------------------------------------------------- #
# These operate on raw ndarrays and write every intermediate into
# caller-provided buffers, so a warmed-up :class:`repro.nn.inference` plan
# performs zero allocations per call.  The fused autograd nodes above run
# the same kernels on fresh buffers, which is what makes
# ``forward_inference`` bitwise identical to the ``no_grad`` Tensor path at
# both dtypes.


def linear_into(x: np.ndarray, weight: np.ndarray, out: np.ndarray,
                bias: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight (+ bias)`` into ``out`` — the forward of :func:`linear`."""
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    return out


def layer_norm_into(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    out: np.ndarray, sq: np.ndarray, red: np.ndarray,
                    eps: float = 1e-5,
                    xhat: np.ndarray | None = None) -> np.ndarray:
    """Layer norm over the last axis into ``out`` — the forward of
    :func:`layer_norm`.

    ``sq`` is an x-shaped scratch, ``red`` a ``(..., 1)`` reduction buffer
    that ends holding ``1/std``.  With ``xhat`` (an x-shaped buffer, which
    may be ``sq``) the normalised input is kept there for a backward.
    """
    np.mean(x, axis=-1, keepdims=True, out=red)
    np.subtract(x, red, out=out)                 # centered
    np.multiply(out, out, out=sq)
    np.mean(sq, axis=-1, keepdims=True, out=red)  # var
    np.add(red, eps, out=red)
    np.sqrt(red, out=red)
    np.divide(1.0, red, out=red)                 # inv_std
    if xhat is None:
        xhat = out
    np.multiply(out, red, out=xhat)
    np.multiply(xhat, gamma, out=out)
    np.add(out, beta, out=out)
    return out


def softmax_into(scores: np.ndarray, red: np.ndarray) -> np.ndarray:
    """In-place softmax over the last axis.

    The row max is taken by pairwise halving, ``max(cur[:h], cur[L-h:])``
    with ``h = ceil(L/2)``, into a half-size scratch and then ``red``:
    numpy's ``amax`` over a short last axis is slow, and max is exact, so
    the result is bitwise ``amax``'s (the overlapping middle element of an
    odd length is harmless, and NaN propagates the same way).
    """
    cur = scores
    while (length := cur.shape[-1]) > 2:
        half = (length + 1) // 2
        out = (np.empty((*scores.shape[:-1], half), scores.dtype)
               if cur is scores else cur[..., :half])
        cur = np.maximum(cur[..., :half], cur[..., length - half:], out=out)
    np.maximum(cur[..., :1], cur[..., -1:], out=red)
    np.subtract(scores, red, out=scores)
    np.exp(scores, out=scores)
    np.sum(scores, axis=-1, keepdims=True, out=red)
    np.divide(scores, red, out=scores)
    return scores


def mha_qkv_into(qkv: np.ndarray, num_heads: int, out: np.ndarray,
                 q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 scores: np.ndarray, red: np.ndarray,
                 ctx: np.ndarray, spans=None) -> np.ndarray:
    """Packed-QKV multi-head attention into ``out`` — the forward of
    :func:`multi_head_attention_qkv`.

    ``qkv`` is ``(..., t, 3d)``; ``q``/``k``/``v``/``ctx`` are
    ``(..., H, t, hd)`` head-major buffers, ``scores`` is ``(..., H, t, t)``
    and ``red`` its ``(..., H, t, 1)`` reduction scratch; ``out`` is
    ``(..., t, d)``.

    ``spans`` is the padded-packing row mask, expressed structurally: a
    sequence of ``(q_s, k_swapped_s, v_s, scores_s, red_s, ctx_s)`` view
    tuples, each slicing the head-major buffers down to one span's *real*
    batch rows and token count.  With spans, the attention core (``q kᵀ``,
    softmax, ``probs @ v``) runs once per span on those sliced views, so
    padded rows and columns never enter a reduction — every real row's
    scores stay bitwise identical to an unpadded run, while the head
    split/merge copies and the 1/√hd scale still execute on the full
    (padded) buffers in one shot.  Padded regions of ``ctx``/``out`` are
    left stale; callers must never extract them.
    """
    *lead, t, _ = qkv.shape
    _split_heads_into(qkv, num_heads, q, k, v)
    if spans is None:
        np.matmul(q, np.swapaxes(k, -1, -2), out=scores)
        softmax_into(scores, red)
        np.matmul(scores, v, out=ctx)             # (..., H, t, hd)
    else:
        for q_s, k_sw, v_s, scores_s, red_s, ctx_s in spans:
            np.matmul(q_s, k_sw, out=scores_s)
            softmax_into(scores_s, red_s)
            np.matmul(scores_s, v_s, out=ctx_s)
    out.reshape(*lead, t, num_heads, -1)[...] = np.swapaxes(ctx, -3, -2)
    return out


def _head_split(qkv: np.ndarray, num_heads: int) -> np.ndarray:
    """``(3, ..., H, t, hd)`` head-major view of packed ``(..., t, 3d)`` QKV."""
    *lead, t, packed = qkv.shape
    return np.moveaxis(
        qkv.reshape(*lead, t, 3, num_heads, packed // 3 // num_heads), -3, 0
    ).swapaxes(-3, -2)


def _split_heads_into(qkv: np.ndarray, num_heads: int, q: np.ndarray,
                      k: np.ndarray, v: np.ndarray) -> None:
    """Split packed ``(..., t, 3d)`` QKV into head-major ``(..., H, t, hd)``
    buffers, with the 1/√hd scale folded into ``q``."""
    split = _head_split(qkv, num_heads)
    np.copyto(q, split[0])
    np.copyto(k, split[1])
    np.copyto(v, split[2])
    np.multiply(q, 1.0 / math.sqrt(q.shape[-1]), out=q)


def mha_qkv_rows_into(qkv: np.ndarray, num_heads: int, out: np.ndarray,
                      q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      scores: np.ndarray, ctx: np.ndarray,
                      rows: np.ndarray, probs: np.ndarray,
                      spans, row_spans) -> np.ndarray:
    """:func:`mha_qkv_into` for selected query rows only.

    ``rows`` indexes the query rows of ``scores`` viewed as ``(-1, t)``
    (equivalently of ``ctx`` viewed as ``(-1, hd)``), one per batch row and
    head, in ``(batch…, head)`` order.  Only those rows are gathered into
    the ``(len(rows), t)``-sized ``probs``, softmaxed and head-merged into
    ``out``, a ``(len(rows), hd)`` buffer read as ``(len(rows) / H, d)``.
    The ``q kᵀ`` and ``probs·v`` GEMMs keep their full shapes: a one-row
    GEMM takes numpy's vector path, whose sums round differently, so
    full-size calls are what keep the selected rows' bytes equal to
    :func:`mha_qkv_into`'s.  Rows not selected are left un-normalised in
    ``scores`` and stale in ``ctx``.

    ``spans`` slices the GEMMs per shape group as in :func:`mha_qkv_into`;
    ``row_spans`` holds the matching ``(probs_s, red_s)`` views, so each
    target row is softmaxed over its own context's real tokens.
    """
    t = qkv.shape[-2]
    _split_heads_into(qkv, num_heads, q, k, v)
    for q_s, k_sw, _v, scores_s, _red, _ctx in spans:
        np.matmul(q_s, k_sw, out=scores_s)
    flat = scores.reshape(-1, t)
    np.take(flat, rows, axis=0, out=probs.reshape(-1, t), mode="clip")
    for probs_s, red_s in row_spans:
        softmax_into(probs_s, red_s)
    flat[rows] = probs.reshape(-1, t)
    for _q, _k, v_s, scores_s, _red, ctx_s in spans:
        np.matmul(scores_s, v_s, out=ctx_s)
    np.take(ctx.reshape(-1, ctx.shape[-1]), rows, axis=0, out=out,
            mode="clip")
    return out


def attribute_attention_into(x: np.ndarray, w_qkv: np.ndarray,
                             w_out: np.ndarray, num_heads: int,
                             out: np.ndarray, scratch: TokenMajorScratch,
                             gamma: np.ndarray | None = None,
                             beta: np.ndarray | None = None,
                             bias: np.ndarray | None = None,
                             residual: bool = True,
                             eps: float = 1e-5) -> np.ndarray:
    """Token-major attribute attention into ``out`` — the forward of
    :func:`attribute_attention`, which runs exactly this function.

    ``x`` and ``out`` are C-contiguous ``(..., t, d)`` arrays, possibly the
    same one; ``scratch`` holds at least ``TokenMajorScratch.lanes(cells)``
    columns.  The activation is transposed once to ``(d, t, lanes)``, so the
    layer norm reduces over the outer ``d`` axis, both projections are
    single ``Wᵀ @ X`` GEMMs, the score and ``probs·v`` contractions are
    einsums with cells innermost, and the softmax reduces over the key axis
    while the cells stay the long contiguous inner loop.  The softmax divide
    is applied to the ``(d, t, lanes)`` context instead of the ``t``-times
    larger score tensor.

    A cell's result depends only on that cell: every step is elementwise
    over cells or a GEMM column, and the lane padding (zeros) keeps the
    GEMMs on whole panels — so batching or padding contexts never changes
    a real cell's bytes.
    """
    t, d = x.shape[-2:]
    s = scratch
    cells = x.size // (t * d)
    lanes = s.xt.shape[-1]
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    np.copyto(s.xt[..., :cells], x.reshape(cells, t, d).transpose(2, 1, 0))
    s.xt[..., cells:] = 0.0
    if gamma is not None:
        np.mean(s.xt, axis=0, out=s.stats)
        np.subtract(s.xt, s.stats, out=s.xhat)      # centered
        np.multiply(s.xhat, s.xhat, out=s.y)
        np.mean(s.y, axis=0, out=s.stats)           # var
        np.add(s.stats, eps, out=s.stats)
        np.sqrt(s.stats, out=s.stats)
        np.divide(1.0, s.stats, out=s.stats)        # inv_std
        np.multiply(s.xhat, s.stats, out=s.xhat)
        np.multiply(s.xhat, gamma[:, None, None], out=s.normed)
        np.add(s.normed, beta[:, None, None], out=s.normed)
        src = s.normed
    else:
        src = s.xt
    n2 = t * lanes
    np.matmul(w_qkv.T, src.reshape(d, n2), out=s.qkv.reshape(3 * d, n2))
    q, k, v = s.qkv.reshape(3, num_heads, head_dim, t, lanes)
    np.multiply(q, scale, out=q)
    np.einsum("nxac,nxbc->nabc", q, k, out=s.scores)
    np.amax(s.scores, axis=2, keepdims=True, out=s.red)
    np.subtract(s.scores, s.red, out=s.scores)
    np.exp(s.scores, out=s.scores)
    np.sum(s.scores, axis=2, keepdims=True, out=s.red)
    ctx = s.ctx.reshape(num_heads, head_dim, t, lanes)
    np.einsum("nabc,nxbc->nxac", s.scores, v, out=ctx)
    np.divide(ctx, s.red.reshape(num_heads, 1, t, lanes), out=ctx)
    np.matmul(w_out.T, s.ctx.reshape(d, n2), out=s.y.reshape(d, n2))
    if bias is not None:
        np.add(s.y, bias[:, None, None], out=s.y)
    if residual:
        np.add(s.xt, s.y, out=s.y)
    np.copyto(out.reshape(cells, t, d), s.y[..., :cells].transpose(2, 1, 0))
    return out


def sigmoid_rescale_into(x: np.ndarray, alpha: float,
                         out: np.ndarray) -> np.ndarray:
    """``sigmoid(x) * alpha`` into ``out`` — mirrors ``Tensor.sigmoid`` (with
    its ±60 clip) followed by a scalar multiply coerced to ``x.dtype``."""
    np.clip(x, -60.0, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    np.multiply(out, np.asarray(alpha, dtype=out.dtype), out=out)
    return out
