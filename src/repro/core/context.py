"""Prediction contexts: the unit of computation for HIRE.

A :class:`PredictionContext` is the sampled block of ``n`` users × ``m``
items together with its rating information, split three ways per cell:

* *revealed* — observed ratings shown to the model (the ``p`` fraction),
* *query*    — observed ratings hidden from the model and predicted
  (the ``1-p`` masked set Q of Eq. 17),
* unobserved — the remaining cells, neither input nor supervised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.bipartite import RatingGraph

__all__ = ["PredictionContext", "build_context", "check_reveal_fraction"]


@dataclass
class PredictionContext:
    """One n × m context block with revealed/query rating masks."""

    users: np.ndarray          # (n,) user ids
    items: np.ndarray          # (m,) item ids
    ratings: np.ndarray        # (n, m) observed values, 0 where unobserved
    observed: np.ndarray       # (n, m) bool
    revealed: np.ndarray       # (n, m) bool, subset of observed
    query: np.ndarray          # (n, m) bool, observed & ~revealed (selected)

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        n, m = len(self.users), len(self.items)
        for field_name in ("ratings", "observed", "revealed", "query"):
            arr = getattr(self, field_name)
            if arr.shape != (n, m):
                raise ValueError(f"{field_name} must be ({n}, {m}), got {arr.shape}")
        if (self.revealed & ~self.observed).any():
            raise ValueError("revealed cells must be observed")
        if (self.query & ~self.observed).any():
            raise ValueError("query cells must be observed")
        if (self.query & self.revealed).any():
            raise ValueError("query and revealed cells overlap")

    @property
    def n(self) -> int:
        return len(self.users)

    @property
    def m(self) -> int:
        return len(self.items)

    def num_query(self) -> int:
        return int(self.query.sum())


def check_reveal_fraction(name: str, value: float) -> None:
    """Reject a reveal fraction outside [0, 1); the chained test fails NaN
    too."""
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value}")


def build_context(graph: RatingGraph, users: np.ndarray, items: np.ndarray,
                  rng: np.random.Generator, reveal_fraction: float = 0.1,
                  forced_query: np.ndarray | None = None,
                  forced_reveal: np.ndarray | None = None) -> PredictionContext:
    """Assemble a context from sampled entities and the visible rating graph.

    ``reveal_fraction`` is ``p`` of §V-A: that fraction of observed cells is
    revealed to the model, the rest becomes the masked query set (the paper
    uses p = 0.1, i.e. 90 % masked).  ``forced_query`` marks cells that must
    be masked regardless (the evaluation targets at test time);
    ``forced_reveal`` marks cells that must be visible regardless (the cold
    entity's known support ratings).
    """
    check_reveal_fraction("reveal_fraction", reveal_fraction)
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings, observed = graph.rating_matrix(users, items)

    maskable = observed.copy()
    if forced_query is not None:
        forced_query = np.asarray(forced_query, dtype=bool)
        if forced_query.shape != observed.shape:
            raise ValueError("forced_query shape mismatch")
        if (forced_query & ~observed).any():
            raise ValueError("forced_query marks unobserved cells")
        maskable &= ~forced_query

    revealed = np.zeros_like(observed)
    if forced_reveal is not None:
        forced_reveal = np.asarray(forced_reveal, dtype=bool)
        if forced_reveal.shape != observed.shape:
            raise ValueError("forced_reveal shape mismatch")
        if (forced_reveal & ~observed).any():
            raise ValueError("forced_reveal marks unobserved cells")
        if forced_query is not None and (forced_reveal & forced_query).any():
            raise ValueError("a cell cannot be both forced_query and forced_reveal")
        revealed |= forced_reveal
        maskable &= ~forced_reveal

    flat = np.flatnonzero(maskable)
    reveal_count = int(round(reveal_fraction * observed.sum()))
    reveal_count = min(reveal_count, len(flat))
    if reveal_count > 0:
        picks = rng.choice(flat, size=reveal_count, replace=False)
        revealed.flat[picks] = True

    query = observed & ~revealed
    return PredictionContext(
        users=users, items=items, ratings=ratings,
        observed=observed, revealed=revealed, query=query,
    )
