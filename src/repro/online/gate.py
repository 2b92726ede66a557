"""Promotion gate: probe-based accept/reject for fine-tuned candidates.

A candidate model earns its way into serving by beating (or at least
matching, within ``accept_margin``) the active model on a *frozen cold-start
probe* — a fixed list of :class:`~repro.eval.tasks.EvalTask` held out when
the gate is built.  Probe evaluation runs through
:class:`~repro.core.predictor.HIREPredictor` with per-task RNG derivation
and a fixed seed, so a model's probe score is a pure function of its
parameters: the same candidate always scores the same, and accept/reject
decisions are reproducible.

The gate also owns the *live window* check used for post-promotion
rollback: recent rating deltas are regrouped into pseudo-tasks (query-only,
no support) and the promoted model is scored against its predecessor on
them.  If the promoted model is worse by more than ``rollback_margin``, the
controller reverts the swap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.context import check_reveal_fraction
from ..core.model import HIRE
from ..core.predictor import HIREPredictor, build_serving_graph
from ..core.sampling import ContextSampler, NeighborhoodSampler
from ..data.splits import ColdStartSplit
from ..eval.metrics import mae, rmse
from ..eval.tasks import EvalTask

__all__ = [
    "GateConfig",
    "ProbeResult",
    "GateDecision",
    "PromotionGate",
    "tasks_from_deltas",
]


@dataclass
class GateConfig:
    """Accept/reject thresholds of the promotion gate.

    ``accept_margin`` is the slack a candidate gets on the probe: it is
    promoted when ``candidate_rmse <= active_rmse * (1 + accept_margin)``.
    Zero (the default) demands the candidate be at least as good.
    ``rollback_margin`` is the live-window tolerance after promotion:
    exceeding ``previous_rmse * (1 + rollback_margin)`` reverts the swap.
    """

    accept_margin: float = 0.0
    rollback_margin: float = 0.05
    context_users: int = 32
    context_items: int = 32
    reveal_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.accept_margin < 0:
            raise ValueError("accept_margin must be >= 0")
        if self.rollback_margin < 0:
            raise ValueError("rollback_margin must be >= 0")
        check_reveal_fraction("reveal_fraction", self.reveal_fraction)


@dataclass
class ProbeResult:
    """Pooled rating-accuracy of one model over one task list."""

    rmse: float
    mae: float
    num_tasks: int
    num_ratings: int


@dataclass
class GateDecision:
    """Outcome of judging a candidate against the active model."""

    accepted: bool
    candidate: ProbeResult
    active: ProbeResult
    margin: float
    reason: str


def tasks_from_deltas(deltas: np.ndarray, graph) -> list[EvalTask]:
    """Regroup rating deltas into query-only pseudo-tasks for live scoring.

    Pairs already observed in ``graph`` are dropped — the predictor's
    context assembly (rightly) refuses query cells that are visible at
    test time, and a rating the serving graph has absorbed is no longer a
    held-out signal.  Returns one task per user with surviving deltas.
    """
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 3)
    _, observed = graph.pair_ratings(deltas[:, 0], deltas[:, 1])
    deltas = deltas[~observed]
    if not len(deltas):
        return []
    tasks = []
    for user in np.unique(deltas[:, 0].astype(np.int64)):
        query = deltas[deltas[:, 0].astype(np.int64) == user]
        tasks.append(EvalTask(user=int(user),
                              support=np.empty((0, 3)), query=query))
    return tasks


class PromotionGate:
    """Judges candidates on a frozen cold-start probe.

    Parameters
    ----------
    split:
        The cold-start split the probe tasks were carved from; its warm
        quadrant plus the probe supports form the visible evaluation graph.
    probe_tasks:
        The held-out tasks every model is scored on.  Frozen at
        construction: the probe never drifts with the stream, so scores
        across rounds are comparable.
    """

    def __init__(self, split: ColdStartSplit, probe_tasks: list[EvalTask],
                 config: GateConfig | None = None,
                 sampler: ContextSampler | None = None):
        if not probe_tasks:
            raise ValueError("the probe needs at least one task")
        self.split = split
        self.probe_tasks = list(probe_tasks)
        self.config = config or GateConfig()
        self.sampler = sampler or NeighborhoodSampler()
        # The visible evaluation graph (warm ratings + probe supports);
        # also the leak filter live-window pseudo-tasks are checked against.
        self.graph, _, _ = build_serving_graph(split, self.probe_tasks)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def evaluate(self, model: HIRE,
                 tasks: list[EvalTask] | None = None) -> ProbeResult:
        """Pooled RMSE/MAE of ``model`` over ``tasks`` (default: the probe).

        Deterministic per model: the predictor derives a generator per
        ``(task, chunk)`` from the gate's fixed seed, so scores do not
        depend on task order or on anything scored before.
        """
        tasks = self.probe_tasks if tasks is None else tasks
        if not tasks:
            raise ValueError("cannot evaluate over an empty task list")
        cfg = self.config
        predictor = HIREPredictor(
            model, self.split, tasks,
            sampler=self.sampler,
            context_users=cfg.context_users,
            context_items=cfg.context_items,
            reveal_fraction=cfg.reveal_fraction,
            seed=cfg.seed,
            per_task_rng=True,
        )
        predicted = np.concatenate(
            [predictor.predict_task(task) for task in tasks])
        actual = np.concatenate([task.query_ratings for task in tasks])
        return ProbeResult(
            rmse=float(rmse(predicted, actual)),
            mae=float(mae(predicted, actual)),
            num_tasks=len(tasks),
            num_ratings=len(actual),
        )

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def decide(self, candidate: ProbeResult,
               active: ProbeResult) -> GateDecision:
        """Accept iff the candidate's probe RMSE is within the margin."""
        margin = self.config.accept_margin
        threshold = active.rmse * (1.0 + margin)
        accepted = candidate.rmse <= threshold
        if accepted:
            reason = (f"candidate rmse {candidate.rmse:.4f} <= "
                      f"threshold {threshold:.4f} (active {active.rmse:.4f})")
        else:
            reason = (f"candidate rmse {candidate.rmse:.4f} > "
                      f"threshold {threshold:.4f} (active {active.rmse:.4f})")
        return GateDecision(accepted=accepted, candidate=candidate,
                            active=active, margin=margin, reason=reason)

    def judge(self, candidate_model: HIRE, active_model: HIRE) -> GateDecision:
        """Probe both models and decide; convenience wrapper."""
        return self.decide(self.evaluate(candidate_model),
                           self.evaluate(active_model))

    def live_tasks(self, deltas: np.ndarray) -> list[EvalTask]:
        """Pseudo-tasks over recent deltas, filtered against the probe
        graph (see :func:`tasks_from_deltas`)."""
        return tasks_from_deltas(deltas, self.graph)

    def regressed(self, promoted: ProbeResult,
                  previous: ProbeResult) -> bool:
        """Live-window rollback test: is the promoted model worse than its
        predecessor beyond ``rollback_margin``?"""
        return promoted.rmse > previous.rmse * (1.0 + self.config.rollback_margin)
