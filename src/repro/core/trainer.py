"""HIRE training loop — Algorithm 1 of the paper.

Each step draws a mini-batch of prediction contexts sampled around random
seed pairs from the warm training quadrant, reveals ``p`` of each context's
observed ratings, masks the rest, and minimises the MSE over the masked set
(Eq. 17) with the paper's optimiser stack: LAMB (β=(0.9, 0.999), ε=1e-6)
wrapped in Lookahead (α=0.5, k=6), a flat-then-anneal cosine schedule at
base LR 1e-3, and global gradient-norm clipping at 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import time

import numpy as np

from .. import nn, obs
from ..data.bipartite import RatingGraph
from ..data.splits import ColdStartSplit
from .context import PredictionContext, check_reveal_fraction
from .model import HIRE
from .sampling import (
    MAX_CONTEXT_RETRIES,
    ContextSampler,
    NeighborhoodSampler,
    derive_step_rng,
    sample_training_context,
)

__all__ = ["TrainerConfig", "HIRETrainer"]


@dataclass
class TrainerConfig:
    """Knobs of Algorithm 1 (§V-A, §VI-A)."""

    steps: int = 200
    batch_size: int = 4
    context_users: int = 32
    context_items: int = 32
    reveal_fraction: float = 0.1
    # Optional upper bound for a randomized reveal fraction: each training
    # context draws p ~ U[reveal_fraction, reveal_fraction_high], teaching
    # the model to exploit dense and sparse context ratings alike.  Equal
    # bounds (the default) reproduce the paper's fixed p.
    reveal_fraction_high: float | None = None
    base_lr: float = 1e-3
    grad_clip: float = 1.0
    flat_fraction: float = 0.7
    seed: int = 0
    # Per-step RNG derivation (derive_step_rng(seed, step, slot)): each
    # context is a pure function of the step index instead of one shared
    # advancing stream.  Off keeps the legacy shared stream.
    per_step_rng: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        check_reveal_fraction("reveal_fraction", self.reveal_fraction)
        if self.reveal_fraction_high is not None:
            check_reveal_fraction("reveal_fraction_high",
                                  self.reveal_fraction_high)


class HIRETrainer:
    """Trains a :class:`HIRE` model on the warm quadrant of a split."""

    def __init__(self, model: HIRE, split: ColdStartSplit,
                 sampler: ContextSampler | None = None,
                 config: TrainerConfig | None = None,
                 observers: list[obs.TrainerObserver] | None = None):
        self.model = model
        self.split = split
        self.sampler = sampler or NeighborhoodSampler()
        self.config = config or TrainerConfig()
        self.rng = np.random.default_rng(self.config.seed)
        # Telemetry is passive: observers receive plain values and never
        # touch model/optimiser/RNG state, so trajectories are identical
        # with or without them.
        self.observers: list[obs.TrainerObserver] = list(observers or [])
        self.last_grad_norm: float = 0.0
        self.last_lr: float = self.config.base_lr
        self._last_step_stats: tuple[int, int, int] = (0, 0, 0)

        self.train_ratings = split.train_ratings()
        if len(self.train_ratings) == 0:
            raise ValueError("split has no warm training ratings")
        dataset = split.dataset
        self.graph = RatingGraph(self.train_ratings, dataset.num_users, dataset.num_items)

        inner = nn.LAMB(model.parameters(), lr=self.config.base_lr,
                        betas=(0.9, 0.999), eps=1e-6)
        self.optimizer = nn.Lookahead(inner, alpha=0.5, k=6)
        self.scheduler = nn.FlatThenAnnealLR(self.optimizer, total_steps=self.config.steps,
                                             flat_fraction=self.config.flat_fraction)
        self.loss_history: list[float] = []
        self._attention_layers = [
            m for m in model.modules()
            if isinstance(m, nn.MultiHeadSelfAttention)
        ]

    # ------------------------------------------------------------------ #
    # Context generation (line 2 / line 4 of Algorithm 1)
    # ------------------------------------------------------------------ #
    def sample_training_context(self, rng: np.random.Generator | None = None
                                ) -> PredictionContext:
        """One context seeded at a random warm (user, item) rating pair.

        ``rng`` defaults to the trainer's stream; passing an explicit
        generator (as per-step RNG does) keeps independent sampling
        streams without touching shared trainer state.

        Delegates to :func:`repro.core.sample_training_context`, which
        gives up with a descriptive :class:`RuntimeError` after
        :data:`~repro.core.MAX_CONTEXT_RETRIES` attempts that all produced
        zero query cells.
        """
        cfg = self.config
        if rng is None:
            rng = self.rng
        return sample_training_context(
            self.graph, self.sampler, self.train_ratings, rng,
            context_users=cfg.context_users, context_items=cfg.context_items,
            reveal_fraction=cfg.reveal_fraction,
            reveal_fraction_high=cfg.reveal_fraction_high,
            candidate_users=self.split.train_users,
            candidate_items=self.split.train_items,
            max_retries=MAX_CONTEXT_RETRIES,
        )

    def _sample_step_batch(self, step: int) -> list[PredictionContext]:
        """The mini-batch of step ``step``.

        With per-step RNG each slot draws from its own derived generator,
        so the batch is a pure function of ``(seed, step)``; otherwise the
        legacy shared stream is advanced.
        """
        cfg = self.config
        if cfg.per_step_rng:
            return [
                self.sample_training_context(
                    rng=derive_step_rng(cfg.seed, step, slot))
                for slot in range(cfg.batch_size)
            ]
        return [self.sample_training_context() for _ in range(cfg.batch_size)]

    # ------------------------------------------------------------------ #
    # Optimisation
    # ------------------------------------------------------------------ #
    def train_step(self) -> float:
        """One mini-batch update; returns the batch MSE loss."""
        cfg = self.config
        if any(layer.capture_attention for layer in self._attention_layers):
            raise RuntimeError(
                "capture_attention is enabled on an attention layer; disable "
                "it during training (it retains per-step attention maps)"
            )
        step = len(self.loss_history)
        with obs.span("train_step"):
            self.optimizer.zero_grad()
            with obs.span("sample"):
                contexts = self._sample_step_batch(step)
            with obs.span("forward"):
                # The contexts share (n, m), so the whole mini-batch runs
                # through one stacked forward/backward graph.
                predicted = self.model.forward_many(contexts)  # (B, n, m)
                batch_loss = None
                for index, context in enumerate(contexts):
                    loss = nn.functional.masked_mse_loss(
                        predicted[index], context.ratings, context.query)
                    batch_loss = loss if batch_loss is None else batch_loss + loss
                batch_loss = batch_loss * (1.0 / cfg.batch_size)
            value = batch_loss.item()
            if not np.isfinite(value):
                raise RuntimeError(
                    f"training diverged at step {len(self.loss_history)}: "
                    f"loss={value}; lower base_lr or raise grad_clip headroom"
                )
            with obs.span("backward"):
                batch_loss.backward()
            with obs.span("optimizer"):
                self.last_grad_norm = nn.clip_grad_norm(
                    self.optimizer.parameters, cfg.grad_clip)
                self.last_lr = self.optimizer.lr
                self.optimizer.step()
                self.scheduler.step()
        self._last_step_stats = (
            contexts[0].n, contexts[0].m,
            sum(c.num_query() for c in contexts),
        )
        self.loss_history.append(value)
        return value

    def add_observer(self, observer: obs.TrainerObserver) -> None:
        """Attach an observer for subsequent :meth:`fit` calls."""
        self.observers.append(observer)

    def fit(self, log_every: int = 0,
            observers: list[obs.TrainerObserver] | None = None) -> list[float]:
        """Run the configured number of steps; returns the loss history.

        ``log_every > 0`` attaches a :class:`repro.obs.ConsoleSink` at that
        cadence for this call (unless one is already observing);
        ``observers`` adds further per-call observers on top of the
        trainer-level ones.
        """
        cfg = self.config
        active = list(self.observers)
        if observers:
            active.extend(observers)
        if log_every and not any(isinstance(o, obs.ConsoleSink) for o in active):
            active.append(obs.ConsoleSink(log_every=log_every))
        for observer in active:
            observer.on_fit_start(self, cfg)
        fit_start = time.perf_counter()
        for step in range(cfg.steps):
            step_start = time.perf_counter()
            loss = self.train_step()
            step_seconds = time.perf_counter() - step_start
            if active:
                n, m, masked = self._last_step_stats
                event = obs.StepEvent(
                    step=step + 1, total_steps=cfg.steps, loss=loss,
                    grad_norm=self.last_grad_norm, lr=self.last_lr,
                    step_seconds=step_seconds,
                    steps_per_second=1.0 / step_seconds if step_seconds > 0 else 0.0,
                    context_n=n, context_m=m, masked_cells=masked,
                )
                for observer in active:
                    observer.on_step(event)
        wall_seconds = time.perf_counter() - fit_start
        if active:
            summary = obs.FitSummary(
                steps_run=cfg.steps, total_steps=cfg.steps,
                final_loss=self.loss_history[-1],
                wall_seconds=wall_seconds,
                steps_per_second=cfg.steps / wall_seconds if wall_seconds > 0 else 0.0,
            )
            for observer in active:
                observer.on_fit_end(summary)
        return self.loss_history
