"""``repro.online`` — incremental fine-tuning with gated promotion.

Closes the loop from rating ingestion to model deployment for the
cold-start serving stack (see ``docs/online_learning.md``):

* :mod:`~repro.online.log` — :class:`RatingLog`, the append-only delta
  trail whose offsets key every fine-tune round.
* :mod:`~repro.online.trainer` — :class:`IncrementalTrainer`, cloning the
  active model and running bounded, bit-reproducible fine-tune rounds on
  fresh + replayed contexts (per-step RNG derivation; a re-run yields the
  same candidate).
* :mod:`~repro.online.gate` — :class:`PromotionGate`, judging candidates
  on a frozen cold-start probe (RMSE/MAE) and arming post-promotion
  rollback over the live delta window.
* :mod:`~repro.online.controller` — :class:`OnlineController`, the loop
  itself: drain-aware background thread, zero-downtime hot swaps through
  :class:`repro.serve.ModelRegistry`, ``online.*`` telemetry, and the
  staleness SLO (:func:`repro.obs.default_online_rules`).
"""

from .controller import OnlineConfig, OnlineController
from .gate import (
    GateConfig,
    GateDecision,
    ProbeResult,
    PromotionGate,
    tasks_from_deltas,
)
from .log import RatingLog
from .trainer import (
    ROUND_SEED_DOMAIN,
    DeltaTrainingView,
    FineTuneConfig,
    FineTuneResult,
    IncrementalTrainer,
    derive_round_seed,
)

__all__ = [
    "RatingLog",
    "FineTuneConfig",
    "FineTuneResult",
    "DeltaTrainingView",
    "IncrementalTrainer",
    "derive_round_seed",
    "ROUND_SEED_DOMAIN",
    "GateConfig",
    "GateDecision",
    "ProbeResult",
    "PromotionGate",
    "tasks_from_deltas",
    "OnlineConfig",
    "OnlineController",
]
