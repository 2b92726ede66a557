"""Multi-head self-attention (Eq. 1-4 of the paper).

The layer operates on inputs of shape ``(..., t, d)``: attention is computed
over the second-to-last axis (the token axis) independently for every leading
batch axis.  This batching is exactly what HIM exploits — MBU runs one
parameter-sharing MHSA over the user axis for each item column, MBI over the
item axis for each user row, and MBA over the attribute axis for each
(user, item) cell.

MHSA is permutation-equivariant over the token axis (Eq. 5), the inductive
bias that makes HIRE order-independent over users and items (Property 5.1);
``tests/nn/test_attention.py`` checks this exactly.

The Q/K/V projections are packed into a single ``(d, 3d)`` weight so the
projection runs as one GEMM; the attention core is the fused
:func:`~repro.nn.functional.multi_head_attention_qkv` node.  Checkpoints
written by the older three-matrix layout load transparently — the packed
weight is the exact column concatenation ``[W_q | W_k | W_v]``, so upgraded
checkpoints produce bitwise-identical forward output.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .layers import Linear
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention with optional attention-weight capture.

    Parameters
    ----------
    embed_dim:
        Dimension ``d`` of each input token; also the output dimension.
    num_heads:
        Number of parallel attention heads ``l``; must divide ``embed_dim``.
    rng:
        Generator used to initialise the projection matrices.

    Attributes
    ----------
    last_attention:
        Numpy array of shape ``(..., num_heads, t, t)`` holding the attention
        weights from the most recent forward pass when ``capture_attention``
        was set.  Used by the Fig. 9 case study.
    """

    def __init__(self, embed_dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(f"embed_dim {embed_dim} not divisible by num_heads {num_heads}")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        # Columns [W_q | W_k | W_v]; each block initialised exactly like the
        # historical standalone (d, d) Linear so seeds reproduce per-block
        # fan-in/fan-out statistics.
        self.w_qkv = Parameter(np.concatenate(
            [init.xavier_uniform((embed_dim, embed_dim), rng) for _ in range(3)],
            axis=1,
        ))
        self.w_output = Linear(embed_dim, embed_dim, rng, bias=False)
        self.capture_attention = False
        self.last_attention: np.ndarray | None = None

    def _upgrade_state_dict(self, prefix: str, state: dict) -> None:
        """Pack an old three-matrix checkpoint into the ``w_qkv`` layout."""
        old = [prefix + name for name in
               ("w_query.weight", "w_key.weight", "w_value.weight")]
        if prefix + "w_qkv" not in state and all(key in state for key in old):
            state[prefix + "w_qkv"] = np.concatenate(
                [np.asarray(state.pop(key)) for key in old], axis=1)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.embed_dim:
            raise ValueError(f"expected last dim {self.embed_dim}, got {x.shape[-1]}")
        qkv = F.linear(x, self.w_qkv)
        if self.capture_attention:
            fused, self.last_attention = F.multi_head_attention_qkv(
                qkv, self.num_heads, need_weights=True)
        else:
            fused = F.multi_head_attention_qkv(qkv, self.num_heads)
        return self.w_output(fused)
