"""The HIRE model: encoder → K HIM blocks → rating decoder (Fig. 3).

The decoder (Eq. 16) maps every cell embedding to a scalar through a linear
head and a sigmoid rescaled by ``α`` (set to the dataset's maximum rating),
yielding the predicted rating matrix ``R̂ ∈ R^{n×m}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..data.schema import RatingDataset
from .context import PredictionContext
from .encoder import ContextEncoder
from .him import HIM

__all__ = ["HIREConfig", "HIRE"]


@dataclass
class HIREConfig:
    """Hyper-parameters of HIRE (§VI-A defaults).

    ``num_blocks`` is K (3 in the paper); ``num_heads`` × ``attr_dim`` match
    the paper's 8 heads of hidden size 16.  ``use_user`` / ``use_item`` /
    ``use_attr`` drive the Table VI ablation grid.
    """

    num_blocks: int = 3
    num_heads: int = 8
    attr_dim: int = 16
    use_user: bool = True
    use_item: bool = True
    use_attr: bool = True
    use_residual: bool = True
    use_layer_norm: bool = True
    learned_mask_token: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.attr_dim % 1 or self.attr_dim < 1:
            raise ValueError("attr_dim must be a positive integer")

    def ablated(self, **flags) -> "HIREConfig":
        """Copy of this config with ablation flags replaced."""
        values = self.__dict__ | flags
        return HIREConfig(**values)


class HIRE(nn.Module):
    """Heterogeneous Interaction Rating nEtwork."""

    def __init__(self, dataset: RatingDataset, config: HIREConfig | None = None):
        super().__init__()
        self.config = config or HIREConfig()
        rng = np.random.default_rng(self.config.seed)
        self.encoder = ContextEncoder(dataset, self.config.attr_dim, rng,
                                      learned_mask_token=self.config.learned_mask_token)
        self.blocks = nn.ModuleList(
            HIM(
                self.encoder.num_attributes,
                self.config.attr_dim,
                self.config.num_heads,
                rng,
                use_user=self.config.use_user,
                use_item=self.config.use_item,
                use_attr=self.config.use_attr,
                use_residual=self.config.use_residual,
                use_layer_norm=self.config.use_layer_norm,
            )
            for _ in range(self.config.num_blocks)
        )
        self.decoder = nn.Linear(self.encoder.embed_dim, 1, rng)
        # α rescales the sigmoid to the rating range upper bound (Eq. 16);
        # the full range is kept so serving can reject out-of-scale deltas.
        self.rating_range = (float(dataset.rating_range[0]),
                             float(dataset.rating_range[1]))
        self.alpha = self.rating_range[1]

    def forward(self, context: PredictionContext) -> nn.Tensor:
        """Predicted rating matrix ``R̂`` of shape (n, m)."""
        h = self.encoder(context)
        for block in self.blocks:
            h = block(h)
        logits = self.decoder(h)  # (n, m, 1)
        return logits.reshape(context.n, context.m).sigmoid() * self.alpha

    def forward_many(self, contexts: list[PredictionContext]) -> nn.Tensor:
        """Batched forward over equally-sized contexts: (B, n, m) ratings.

        HIM's attention layers batch over leading axes, so stacking B
        same-shape contexts runs the whole mini-batch in one graph — the
        fast path :class:`~repro.core.trainer.HIRETrainer` uses when
        ``TrainerConfig.batched_forward`` is on.
        """
        if not contexts:
            raise ValueError("forward_many needs at least one context")
        n, m = contexts[0].n, contexts[0].m
        if any(c.n != n or c.m != m for c in contexts):
            raise ValueError("forward_many requires equally-sized contexts")
        h = nn.functional.stack([self.encoder(c) for c in contexts], axis=0)
        for block in self.blocks:
            h = block(h)
        logits = self.decoder(h)  # (B, n, m, 1)
        return logits.reshape(len(contexts), n, m).sigmoid() * self.alpha

    def predict(self, context: PredictionContext,
                row: int | None = None) -> np.ndarray:
        """Inference-only forward returning a numpy matrix.

        Uses the graph-free inference engine when supported (bitwise
        identical, allocation-free), else a ``no_grad`` Tensor forward.
        With ``row`` it returns only that user row's ``(m,)`` scores, which
        the engine computes through its target-row tail (bitwise equal to
        the same row of the full matrix).  The caller's train/eval mode is
        restored on return.
        """
        was_training = self.training
        self.eval()
        try:
            if nn.inference.engine_supported(self):
                rows = None if row is None else (row,)
                out = nn.inference.forward_inference(self, context, rows=rows)
                return (out if row is None else out[0]).copy()
            with nn.no_grad():
                out_data = self.forward(context).data
            return out_data if row is None else out_data[row].copy()
        finally:
            self.train(was_training)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save(self, path):
        """Checkpoint parameters and config to an ``.npz`` file.

        Returns the real path written (``.npz`` appended when missing).
        """
        from ..nn.serialization import save_module

        return save_module(path, self, metadata={"config": self.config.__dict__,
                                                 "alpha": self.alpha})

    def load(self, path) -> None:
        """Restore parameters from a checkpoint with a matching config."""
        from ..nn.serialization import load_checkpoint

        state, metadata = load_checkpoint(path)
        saved_config = metadata.get("config")
        if saved_config is not None and saved_config != self.config.__dict__:
            raise ValueError(
                f"checkpoint config {saved_config} does not match model "
                f"config {self.config.__dict__}"
            )
        self.load_state_dict(state)

    # ------------------------------------------------------------------ #
    # Attention capture for the Fig. 9 case study
    # ------------------------------------------------------------------ #
    def capture_attention(self, enabled: bool = True) -> None:
        for block in self.blocks:
            block.set_capture(enabled)

    def captured_attention(self) -> list[dict[str, np.ndarray]]:
        """Per-HIM attention weights from the most recent forward pass."""
        return [block.captured_attention() for block in self.blocks]
