"""The sampling side of the pipeline: step batches as pure functions.

:class:`ContextBatchSource` packages everything
:func:`repro.core.sample_training_context` needs (graph, sampler,
candidate pools, context budgets) so that ``sample_step(step)`` is a pure
function of the step index — each slot of the batch draws from its own
:func:`~repro.pipeline.rng.derive_step_rng` generator.  Purity is what
makes the source safe to call from any thread (all inputs are read-only).
"""

from __future__ import annotations

import numpy as np

from ..core.context import PredictionContext
from ..core.sampling import (
    MAX_CONTEXT_RETRIES,
    ContextSampler,
    sample_training_context,
)
from ..data.bipartite import RatingGraph
from .rng import derive_step_rng

__all__ = ["ContextBatchSource"]


class ContextBatchSource:
    """Samples the training contexts of one step, deterministically."""

    def __init__(self, graph: RatingGraph, sampler: ContextSampler,
                 train_ratings: np.ndarray, *,
                 seed: int, batch_size: int,
                 context_users: int, context_items: int,
                 reveal_fraction: float,
                 reveal_fraction_high: float | None = None,
                 candidate_users: np.ndarray, candidate_items: np.ndarray,
                 max_retries: int = MAX_CONTEXT_RETRIES):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.graph = graph
        self.sampler = sampler
        self.train_ratings = train_ratings
        self.seed = seed
        self.batch_size = batch_size
        self.context_users = context_users
        self.context_items = context_items
        self.reveal_fraction = reveal_fraction
        self.reveal_fraction_high = reveal_fraction_high
        self.candidate_users = candidate_users
        self.candidate_items = candidate_items
        self.max_retries = max_retries

    @classmethod
    def from_trainer(cls, trainer) -> "ContextBatchSource":
        """Build a source mirroring a :class:`~repro.core.HIRETrainer`'s
        sampling configuration exactly."""
        cfg = trainer.config
        return cls(
            trainer.graph, trainer.sampler, trainer.train_ratings,
            seed=cfg.seed, batch_size=cfg.batch_size,
            context_users=cfg.context_users, context_items=cfg.context_items,
            reveal_fraction=cfg.reveal_fraction,
            reveal_fraction_high=cfg.reveal_fraction_high,
            candidate_users=trainer.split.train_users,
            candidate_items=trainer.split.train_items,
        )

    def sample_slot(self, step: int, slot: int) -> PredictionContext:
        """Context ``slot`` of step ``step`` — pure in ``(seed, step, slot)``."""
        rng = derive_step_rng(self.seed, step, slot)
        return sample_training_context(
            self.graph, self.sampler, self.train_ratings, rng,
            context_users=self.context_users,
            context_items=self.context_items,
            reveal_fraction=self.reveal_fraction,
            reveal_fraction_high=self.reveal_fraction_high,
            candidate_users=self.candidate_users,
            candidate_items=self.candidate_items,
            max_retries=self.max_retries,
        )

    def sample_step(self, step: int) -> list[PredictionContext]:
        """The full mini-batch of contexts for one training step."""
        return [self.sample_slot(step, slot)
                for slot in range(self.batch_size)]
