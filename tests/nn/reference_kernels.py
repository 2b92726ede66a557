"""Decomposed reference kernels: the oracle for the fused autograd nodes.

These are the substrate's original compositions of Tensor primitives —
layer norm and GELU as ~7–8 small nodes each, multi-head self-attention as
three separate Q/K/V matmuls and a many-node attention graph, and HIM's MBA
as that attention wrapped row-major in pre-norm and residual.  The fused
nodes in ``repro.nn.functional`` must match them to 1e-10 in float64,
outputs and every gradient (``test_fused_ops.py``).  They live here, not in
``src/``, because nothing but the tests runs them.
"""

from __future__ import annotations

import math

from repro.nn import functional as F
from repro.nn.tensor import Tensor

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_reference(x: Tensor) -> Tensor:
    """GELU (tanh approximation) composed from Tensor primitives (~8 nodes)."""
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def layer_norm_reference(x: Tensor, gamma: Tensor, beta: Tensor,
                         eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis from Tensor primitives (~7 nodes)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + eps).sqrt()
    return normed * gamma + beta


def linear_reference(x: Tensor, weight: Tensor,
                     bias: Tensor | None = None) -> Tensor:
    out = x @ weight
    return out if bias is None else out + bias


def mhsa_reference(layer, x: Tensor) -> Tensor:
    """``layer`` (a ``MultiHeadSelfAttention``) on ``x`` through three
    separate QKV matmuls and a many-node attention graph.  With
    ``layer.capture_attention`` set, stores the weights in
    ``layer.last_attention``."""
    t = x.shape[-2]
    lead = x.shape[:-2]
    d = layer.embed_dim

    def split_heads(proj: Tensor) -> Tensor:
        # (..., t, d) -> (..., heads, t, head_dim)
        reshaped = proj.reshape(*lead, t, layer.num_heads, layer.head_dim)
        return reshaped.swapaxes(-3, -2)

    q = split_heads(x @ layer.w_qkv[:, :d])
    k = split_heads(x @ layer.w_qkv[:, d:2 * d])
    v = split_heads(x @ layer.w_qkv[:, 2 * d:])

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(layer.head_dim))
    attn = F.softmax(scores, axis=-1)
    if layer.capture_attention:
        layer.last_attention = attn.data.copy()

    fused = attn @ v  # (..., heads, t, head_dim)
    merged = fused.swapaxes(-3, -2).reshape(*lead, t, layer.embed_dim)
    return linear_reference(merged, layer.w_output.weight, layer.w_output.bias)


def mba_reference(him, h: Tensor) -> Tensor:
    """HIM's MBA, row-major: every (user, item) cell's ``h`` attribute
    tokens attend to each other through :func:`mhsa_reference`, wrapped in
    the block's pre-norm and residual."""
    *lead, n, m, _ = h.shape
    x = h.reshape(*lead, n, m, him.num_attributes, him.attr_dim)
    if him.use_layer_norm:
        norm = him.attr_norm
        normed = layer_norm_reference(x, norm.gamma, norm.beta, norm.eps)
    else:
        normed = x
    fused = mhsa_reference(him.attr_attention, normed)
    out = (x + fused) if him.use_residual else fused
    return out.reshape(*lead, n, m, him.embed_dim)
