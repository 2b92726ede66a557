"""Bounded, bit-reproducible fine-tune rounds over fresh rating deltas.

Online learning here is *cloned* fine-tuning: the active serving model is
never touched.  Each round copies its parameters into a fresh :class:`HIRE`,
builds a training view whose rating pool is the warm replay set plus every
logged delta (deltas override replayed values for re-rated pairs, matching
the serving graph's dedupe semantics), and runs a bounded number of
:class:`~repro.core.trainer.HIRETrainer` steps with per-step RNG derivation
(:func:`repro.core.derive_step_rng`).  The round seed is itself derived
from ``(config seed, log offset)``, so a round is a pure function of

    (base checkpoint, log offset, seed)

— re-running it produces a bit-identical candidate model.

Fresh deltas are emphasised by *seed-pair boosting*: the triple pool that
training contexts are seeded from repeats each fresh delta ``fresh_boost``
times.  The rating graph itself holds each rating once (duplicate triples
collapse in :class:`~repro.data.bipartite.RatingGraph`), so boosting only
biases where contexts are centred, never what they contain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.context import check_reveal_fraction
from ..core.model import HIRE
from ..core.sampling import ContextSampler, NeighborhoodSampler
from ..core.trainer import HIRETrainer, TrainerConfig
from ..data.schema import RatingDataset
from ..data.splits import ColdStartSplit

__all__ = [
    "FineTuneConfig",
    "FineTuneResult",
    "DeltaTrainingView",
    "IncrementalTrainer",
    "derive_round_seed",
    "ROUND_SEED_DOMAIN",
]

# Domain separator keying online fine-tune rounds apart from every other
# derived-generator family (training steps use repro.core's
# STEP_RNG_DOMAIN, serving uses task_chunk_rng's raw key tuples).
ROUND_SEED_DOMAIN = 0x4F4E4C4E  # "ONLN"


def derive_round_seed(seed: int, log_offset: int) -> int:
    """Deterministic seed of the fine-tune round that trained up to
    ``log_offset``.

    Deriving from ``(seed, offset)`` — rather than advancing any shared
    state — makes the round a pure function of its inputs: two processes
    that agree on the base checkpoint and the log prefix produce
    bit-identical candidates.
    """
    sequence = np.random.SeedSequence(
        [ROUND_SEED_DOMAIN, int(seed), int(log_offset)])
    return int(sequence.generate_state(1, np.uint32)[0])


@dataclass
class DeltaTrainingView:
    """Duck-typed :class:`~repro.data.splits.ColdStartSplit` stand-in whose
    warm pool is ``replayed + deltas`` (deltas last, so a re-rated pair's
    newest value wins inside the rating graph's lookup).

    :class:`~repro.core.trainer.HIRETrainer` only reads ``dataset``,
    ``train_users``, ``train_items`` and ``train_ratings()`` from its
    split, so this small view is all the online loop needs to retarget
    training at the streamed data.
    """

    dataset: RatingDataset
    train_users: np.ndarray
    train_items: np.ndarray
    ratings: np.ndarray

    def train_ratings(self) -> np.ndarray:
        return self.ratings


@dataclass
class FineTuneConfig:
    """Knobs of one incremental fine-tune round."""

    steps: int = 25
    batch_size: int = 4
    base_lr: float = 5e-4
    # Seed-pair boost for fresh deltas: each fresh triple appears this many
    # times in the context-seeding pool (1 = no emphasis).
    fresh_boost: int = 4
    context_users: int = 32
    context_items: int = 32
    reveal_fraction: float = 0.1
    grad_clip: float = 1.0
    flat_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.fresh_boost < 1:
            raise ValueError("fresh_boost must be >= 1")
        check_reveal_fraction("reveal_fraction", self.reveal_fraction)


@dataclass
class FineTuneResult:
    """One round's candidate model plus its provenance."""

    model: HIRE
    round_seed: int
    log_offset: int
    steps: int
    fresh_count: int
    replay_count: int
    seconds: float
    loss_history: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class IncrementalTrainer:
    """Clones the active model and fine-tunes it on logged rating deltas.

    Parameters
    ----------
    split:
        The cold-start split the base model was trained on; its warm
        quadrant is the replay pool and its warm entities seed the
        candidate pools (extended with any new entities the deltas touch).
    """

    def __init__(self, split: ColdStartSplit,
                 sampler: ContextSampler | None = None,
                 config: FineTuneConfig | None = None):
        self.split = split
        self.dataset = split.dataset
        self.sampler = sampler or NeighborhoodSampler()
        self.config = config or FineTuneConfig()
        self._base_ratings = split.train_ratings()

    # ------------------------------------------------------------------ #
    # Cloning
    # ------------------------------------------------------------------ #
    def clone(self, model: HIRE) -> HIRE:
        """A fresh :class:`HIRE` carrying ``model``'s parameters.

        ``state_dict`` / ``load_state_dict`` both copy, so the clone shares
        nothing with the serving model — training it can never perturb
        in-flight predictions.
        """
        clone = HIRE(self.dataset, model.config)
        clone.load_state_dict(model.state_dict())
        return clone

    # ------------------------------------------------------------------ #
    # Training view assembly
    # ------------------------------------------------------------------ #
    def build_view(self, deltas: np.ndarray,
                   fresh: np.ndarray | None = None) -> DeltaTrainingView:
        """The training view for one round.

        ``deltas`` is every logged triple up to the round's offset (they
        join the graph; newest value wins for re-rated pairs); ``fresh``
        (default: all of ``deltas``) is the subset whose seed-pair weight is
        boosted ``fresh_boost``-fold.
        """
        cfg = self.config
        deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 3)
        fresh = deltas if fresh is None else (
            np.asarray(fresh, dtype=np.float64).reshape(-1, 3))
        pools = [self._base_ratings, deltas]
        if cfg.fresh_boost > 1 and fresh.size:
            pools.extend([fresh] * (cfg.fresh_boost - 1))
        ratings = np.concatenate(pools)
        train_users = np.union1d(self.split.train_users,
                                 deltas[:, 0].astype(np.int64))
        train_items = np.union1d(self.split.train_items,
                                 deltas[:, 1].astype(np.int64))
        return DeltaTrainingView(dataset=self.dataset,
                                 train_users=train_users,
                                 train_items=train_items,
                                 ratings=ratings)

    # ------------------------------------------------------------------ #
    # Fine-tuning
    # ------------------------------------------------------------------ #
    def fine_tune(self, base_model: HIRE, deltas: np.ndarray,
                  log_offset: int,
                  fresh: np.ndarray | None = None) -> FineTuneResult:
        """One bounded fine-tune round; returns the candidate model.

        The round is a pure function of ``(base_model parameters,
        log_offset, config.seed)``: the trainer runs with per-step RNG
        derivation, so re-running it reproduces the candidate bit-exactly.
        """
        cfg = self.config
        round_seed = derive_round_seed(cfg.seed, log_offset)
        view = self.build_view(deltas, fresh)
        candidate = self.clone(base_model)
        trainer_config = TrainerConfig(
            steps=cfg.steps,
            batch_size=cfg.batch_size,
            context_users=cfg.context_users,
            context_items=cfg.context_items,
            reveal_fraction=cfg.reveal_fraction,
            base_lr=cfg.base_lr,
            grad_clip=cfg.grad_clip,
            flat_fraction=cfg.flat_fraction,
            seed=round_seed,
            per_step_rng=True,
        )
        start = time.perf_counter()
        trainer = HIRETrainer(candidate, view, sampler=self.sampler,
                              config=trainer_config)
        losses = trainer.fit()
        seconds = time.perf_counter() - start
        candidate.eval()
        fresh_count = len(deltas) if fresh is None else len(fresh)
        return FineTuneResult(
            model=candidate,
            round_seed=round_seed,
            log_offset=int(log_offset),
            steps=cfg.steps,
            fresh_count=fresh_count,
            replay_count=len(self._base_ratings),
            seconds=seconds,
            loss_history=list(losses),
        )
