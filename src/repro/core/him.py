"""Heterogeneous Interaction Module (HIM) — §IV-C of the paper.

One HIM stacks three parameter-sharing multi-head self-attention layers:

* **MBU** (Eq. 10-11): attention *between users* — each item column
  ``H[:, j, :]`` is a sequence of ``n`` user tokens; one shared MHSA
  processes all ``m`` columns in parallel.
* **MBI** (Eq. 12-13): attention *between items* — each user row
  ``H[k, :, :]`` is a sequence of ``m`` item tokens.
* **MBA** (Eq. 14-15): attention *between attributes* — each cell
  ``H[k, j, :]`` is reshaped to ``h`` attribute tokens of width ``f``.

The three layers can be disabled individually, which is exactly the Table VI
ablation grid ("wo/ User", "wo/ Item & Attribute", …).

Implementation note: each attention layer is wrapped with a residual
connection and pre-layer-norm.  The paper fixes K = 3 stacked HIMs trained
with LAMB — the standard transformer-block residual structure is the
implementation detail that makes such a stack optimisable, and it preserves
the permutation-equivariance argument of Property 5.1 (layer norm and
residuals act per token).
"""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = ["HIM"]


class HIM(nn.Module):
    """One heterogeneous interaction block over ``H ∈ R^{n×m×e}``.

    Parameters
    ----------
    num_attributes:
        ``h`` — attribute token count per cell (user attrs + item attrs + 1).
    attr_dim:
        ``f`` — width of each attribute token; ``e = h·f``.
    num_heads:
        Heads of each MHSA layer (the paper uses 8 heads × 16 dims).
    use_user / use_item / use_attr:
        Ablation switches for the MBU / MBI / MBA layers.
    use_residual / use_layer_norm:
        Switches for the residual connections and pre-layer-norm wrapping
        each attention layer — our implementation choices (see DESIGN.md),
        ablated by ``benchmarks/bench_ablation_residual.py``.
    """

    def __init__(self, num_attributes: int, attr_dim: int, num_heads: int,
                 rng: np.random.Generator, use_user: bool = True,
                 use_item: bool = True, use_attr: bool = True,
                 use_residual: bool = True, use_layer_norm: bool = True):
        super().__init__()
        if not (use_user or use_item or use_attr):
            raise ValueError("HIM needs at least one attention layer enabled")
        self.num_attributes = num_attributes
        self.attr_dim = attr_dim
        self.embed_dim = num_attributes * attr_dim
        self.use_user = use_user
        self.use_item = use_item
        self.use_attr = use_attr
        self.use_residual = use_residual
        self.use_layer_norm = use_layer_norm

        if use_user:
            self.user_attention = nn.MultiHeadSelfAttention(self.embed_dim, num_heads, rng)
            if use_layer_norm:
                self.user_norm = nn.LayerNorm(self.embed_dim)
        if use_item:
            self.item_attention = nn.MultiHeadSelfAttention(self.embed_dim, num_heads, rng)
            if use_layer_norm:
                self.item_norm = nn.LayerNorm(self.embed_dim)
        if use_attr:
            attr_heads = min(num_heads, attr_dim)
            while attr_dim % attr_heads != 0:
                attr_heads -= 1
            self.attr_attention = nn.MultiHeadSelfAttention(attr_dim, attr_heads, rng)
            if use_layer_norm:
                self.attr_norm = nn.LayerNorm(attr_dim)

    # ------------------------------------------------------------------ #
    # The three interaction layers
    # ------------------------------------------------------------------ #
    def _wrap(self, attention: nn.Module, norm: nn.Module | None, x: nn.Tensor) -> nn.Tensor:
        """Apply one attention layer with the configured norm/residual."""
        fused = attention(norm(x) if norm is not None else x)
        return (x + fused) if self.use_residual else fused

    def interact_users(self, h: nn.Tensor) -> nn.Tensor:
        """MBU: tokens are the n users, batched over the m item columns.

        Works on ``(..., n, m, e)`` — leading axes (e.g. a context batch)
        ride along as extra MHSA batch dimensions.
        """
        # (..., n, m, e) -> (..., m, n, e): item columns become batch rows.
        transposed = h.swapaxes(-3, -2)
        norm = self.user_norm if self.use_layer_norm else None
        return self._wrap(self.user_attention, norm, transposed).swapaxes(-3, -2)

    def interact_items(self, h: nn.Tensor) -> nn.Tensor:
        """MBI: tokens are the m items, batched over the n user rows."""
        norm = self.item_norm if self.use_layer_norm else None
        return self._wrap(self.item_attention, norm, h)

    def interact_attributes(self, h: nn.Tensor) -> nn.Tensor:
        """MBA: tokens are the h attributes of each (user, item) cell.

        With the fused kernels on, the whole layer (norm, attention,
        residual) is one token-major :func:`repro.nn.functional.
        attribute_attention` node; the decomposed reference path keeps the
        row-major ``_wrap`` composition as the test oracle.
        """
        *lead, n, m, _ = h.shape
        reshaped = h.reshape(*lead, n, m, self.num_attributes, self.attr_dim)
        norm = self.attr_norm if self.use_layer_norm else None
        if not nn.functional.fused_kernels_enabled():
            fused = self._wrap(self.attr_attention, norm, reshaped)
        else:
            attention = self.attr_attention
            bias = attention.w_output.bias
            fused = nn.functional.attribute_attention(
                reshaped, attention.w_qkv, attention.w_output.weight,
                attention.num_heads,
                gamma=None if norm is None else norm.gamma,
                beta=None if norm is None else norm.beta,
                bias=bias, residual=self.use_residual,
                eps=1e-5 if norm is None else norm.eps,
                need_weights=attention.capture_attention)
            if attention.capture_attention:
                fused, attention.last_attention = fused
        return fused.reshape(*lead, n, m, self.embed_dim)

    def forward(self, h: nn.Tensor) -> nn.Tensor:
        if h.shape[-1] != self.embed_dim:
            raise ValueError(f"expected last dim {self.embed_dim}, got {h.shape[-1]}")
        if self.use_user:
            h = self.interact_users(h)
        if self.use_item:
            h = self.interact_items(h)
        if self.use_attr:
            h = self.interact_attributes(h)
        return h

    # ------------------------------------------------------------------ #
    # Attention capture (Fig. 9 case study)
    # ------------------------------------------------------------------ #
    def set_capture(self, enabled: bool) -> None:
        for layer in ("user_attention", "item_attention", "attr_attention"):
            if hasattr(self, layer):
                getattr(self, layer).capture_attention = enabled

    def captured_attention(self) -> dict[str, np.ndarray]:
        """Most recent attention weights per enabled layer.

        Keys: ``"user"`` with shape (m, heads, n, n), ``"item"`` with shape
        (n, heads, m, m), ``"attr"`` with shape (n, m, heads, h, h).
        """
        out: dict[str, np.ndarray] = {}
        if self.use_user and self.user_attention.last_attention is not None:
            out["user"] = self.user_attention.last_attention
        if self.use_item and self.item_attention.last_attention is not None:
            out["item"] = self.item_attention.last_attention
        if self.use_attr and self.attr_attention.last_attention is not None:
            out["attr"] = self.attr_attention.last_attention
        return out
