"""Prediction-context samplers (paper §IV-B and the §VI-E ablation).

Given target (possibly cold) users/items and budgets ``n`` users × ``m``
items, a sampler selects the remaining context entities:

* :class:`NeighborhoodSampler` — the paper's strategy: BFS over the rating
  bipartite graph starting from the seed set, taking one-hop neighbour
  entities hop by hop, uniformly subsampling whenever a frontier exceeds the
  remaining budget (Fig. 5 / Example 1).
* :class:`RandomSampler` — uniform over the candidate pools.
* :class:`FeatureSimilaritySampler` — ranks candidates by cosine similarity
  of one-hot attribute vectors against the targets.

All samplers guarantee exactly ``n`` users and ``m`` items (padding from the
candidate pools when the graph is exhausted), with the targets always first.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..data.bipartite import RatingGraph
from ..data.schema import RatingDataset
from .context import PredictionContext, build_context

__all__ = [
    "ContextSampler",
    "NeighborhoodSampler",
    "RandomSampler",
    "FeatureSimilaritySampler",
    "sampler_by_name",
    "sample_training_context",
    "MAX_CONTEXT_RETRIES",
]

# How many seed pairs a training-context draw tries before giving up.
# Exhaustion means every attempt produced a context with zero masked query
# cells — there is nothing to supervise on, so retrying forever would hang.
MAX_CONTEXT_RETRIES = 16

_EMPTY = np.empty(0, dtype=np.int64)


def sample_training_context(graph: RatingGraph, sampler: ContextSampler,
                            train_ratings: np.ndarray,
                            rng: np.random.Generator, *,
                            context_users: int, context_items: int,
                            reveal_fraction: float,
                            reveal_fraction_high: float | None = None,
                            candidate_users: np.ndarray,
                            candidate_items: np.ndarray,
                            max_retries: int = MAX_CONTEXT_RETRIES
                            ) -> PredictionContext:
    """One training context seeded at a random warm (user, item) rating pair.

    This is line 2 / line 4 of Algorithm 1 as a pure function of its inputs
    plus ``rng``: it draws a seed pair from ``train_ratings``, grows the
    context with ``sampler``, and splits the observed cells into
    revealed/query via :func:`~repro.core.context.build_context`.  Because
    every random draw comes from the passed generator, the same generator
    state always yields the same context — which is what lets
    :mod:`repro.pipeline` sample steps on worker threads bit-identically
    to a sequential loop.

    Raises :class:`RuntimeError` after ``max_retries`` attempts that all
    produced zero query cells (e.g. ``reveal_fraction`` so high that every
    observed rating is revealed), naming the retry count and the last seed
    pair tried.

    Tiny graphs degrade instead of looping: when the graph and candidate
    pools cannot supply the requested budgets, the sampler returns every
    entity it can reach and the context is built at that achievable shape
    (with a :class:`RuntimeWarning` naming it).  If *both* axes fall short
    — the context already contains the entire candidate universe, so every
    retry would rebuild the same observed cells — and the reveal fraction
    is deterministic, a zero-query draw is a :class:`RuntimeError`
    immediately rather than after ``max_retries`` identical failures.
    """
    if len(train_ratings) == 0:
        raise ValueError("train_ratings is empty; nothing to sample from")
    last_pair: tuple[int, int] | None = None
    warned_degraded = False
    for attempt in range(max_retries):
        seed_row = train_ratings[rng.integers(len(train_ratings))]
        last_pair = (int(seed_row[0]), int(seed_row[1]))
        users, items = sampler.sample(
            graph,
            target_users=np.array([last_pair[0]]),
            target_items=np.array([last_pair[1]]),
            n=context_users, m=context_items,
            rng=rng,
            candidate_users=candidate_users,
            candidate_items=candidate_items,
        )
        users_short = len(users) < context_users
        items_short = len(items) < context_items
        if (users_short or items_short) and not warned_degraded:
            warned_degraded = True
            warnings.warn(
                f"context budgets ({context_users} users x {context_items} "
                f"items) exceed what the graph and candidate pools can "
                f"supply; degraded to the achievable "
                f"({len(users)}, {len(items)}) shape",
                RuntimeWarning, stacklevel=2)
        reveal = reveal_fraction
        if reveal_fraction_high is not None:
            reveal = rng.uniform(reveal_fraction, reveal_fraction_high)
        context = build_context(graph, users, items, rng,
                                reveal_fraction=reveal)
        if context.num_query() > 0:
            return context
        if (users_short and items_short and reveal_fraction_high is None
                and np.isin(last_pair[0], candidate_users)
                and np.isin(last_pair[1], candidate_items)):
            # Both pools are exhausted, so the context's entity set — and
            # with a fixed reveal fraction, its query-cell *count* — is the
            # same on every retry.  Burning the remaining attempts on a
            # deterministic zero cannot succeed; fail fast instead.
            raise RuntimeError(
                f"zero maskable query cells at the degraded context shape "
                f"({len(users)}, {len(items)}): both candidate pools are "
                f"exhausted, so every retry rebuilds the same observed "
                f"cells (gave up on attempt {attempt + 1} of {max_retries}; "
                f"seed pair: user {last_pair[0]}, item {last_pair[1]}) — "
                f"lower reveal_fraction (currently {reveal_fraction}) or "
                f"grow the graph"
            )
    raise RuntimeError(
        f"could not sample a context with any masked ratings after "
        f"{max_retries} attempts (last seed pair: user {last_pair[0]}, "
        f"item {last_pair[1]}); every sampled context had zero query cells "
        f"— lower reveal_fraction (currently {reveal_fraction}) or enlarge "
        f"the context budgets"
    )


class ContextSampler:
    """Interface: produce the (users, items) of one prediction context."""

    name = "base"

    def sample(self, graph: RatingGraph, target_users: np.ndarray, target_items: np.ndarray,
               n: int, m: int, rng: np.random.Generator,
               candidate_users: np.ndarray, candidate_items: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _prepare_targets(target_users, target_items, n, m):
        users = np.unique(np.asarray(target_users, dtype=np.int64))[:n]
        items = np.unique(np.asarray(target_items, dtype=np.int64))[:m]
        return users, items

    @staticmethod
    def _pad_uniform(selected: np.ndarray, budget: int, pool: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Fill ``selected`` up to ``budget`` with uniform picks from ``pool``."""
        if len(selected) >= budget:
            return selected[:budget]
        remaining = np.setdiff1d(pool, selected, assume_unique=False)
        need = budget - len(selected)
        if len(remaining) == 0:
            return selected
        take = min(need, len(remaining))
        extra = rng.choice(remaining, size=take, replace=False)
        return np.concatenate([selected, extra])


class NeighborhoodSampler(ContextSampler):
    """BFS sampler over the user-item bipartite graph (the paper's default).

    Each hop expands with numpy array ops over the graph's flat CSR
    adjacency views (:meth:`RatingGraph.user_adjacency` /
    ``item_adjacency``): one fancy-indexed gather + ``np.unique`` +
    boolean-mask filter per hop instead of per-entity Python loops.  The
    generator is consumed only when a frontier pool exceeds the remaining
    budget (one ``rng.choice`` per such hop), exactly as the original
    per-entity loop did; that loop lives on as the test oracle in
    ``tests/core/loop_sampler.py`` and
    ``tests/core/test_sampling_equivalence.py`` property-tests the two
    **bit-identical** from the same rng state.
    """

    name = "neighborhood"

    def sample(self, graph, target_users, target_items, n, m, rng,
               candidate_users, candidate_items):
        users, items = self._prepare_targets(target_users, target_items, n, m)
        candidate_users = np.asarray(candidate_users, dtype=np.int64)
        candidate_items = np.asarray(candidate_items, dtype=np.int64)
        user_adjacency = graph.user_adjacency()   # user -> items
        item_adjacency = graph.item_adjacency()   # item -> users
        allowed_users = np.zeros(graph.num_users, dtype=bool)
        allowed_users[candidate_users] = True
        allowed_users[users] = True
        allowed_items = np.zeros(graph.num_items, dtype=bool)
        allowed_items[candidate_items] = True
        allowed_items[items] = True
        chosen_user_mask = np.zeros(graph.num_users, dtype=bool)
        chosen_user_mask[users] = True
        chosen_item_mask = np.zeros(graph.num_items, dtype=bool)
        chosen_item_mask[items] = True
        chosen_users, chosen_items = users, items
        frontier_users, frontier_items = users, items

        while ((len(chosen_users) < n or len(chosen_items) < m)
               and (frontier_users.size or frontier_items.size)):
            next_users = next_items = _EMPTY
            if len(chosen_users) < n:
                # == sorted(set(union of neighbours)) minus chosen/denied.
                pool = np.unique(item_adjacency.gather(frontier_items))
                if pool.size:
                    pool = pool[allowed_users[pool] & ~chosen_user_mask[pool]]
                picked = self._take_array(pool, n - len(chosen_users), rng)
                if picked.size:
                    chosen_users = np.concatenate([chosen_users, picked])
                    chosen_user_mask[picked] = True
                next_users = picked
            if len(chosen_items) < m:
                pool = np.unique(user_adjacency.gather(frontier_users))
                if pool.size:
                    pool = pool[allowed_items[pool] & ~chosen_item_mask[pool]]
                picked = self._take_array(pool, m - len(chosen_items), rng)
                if picked.size:
                    chosen_items = np.concatenate([chosen_items, picked])
                    chosen_item_mask[picked] = True
                next_items = picked
            if not next_users.size and not next_items.size:
                break
            frontier_users = next_users
            frontier_items = next_items

        users_final = self._pad_uniform(chosen_users, n, candidate_users, rng)
        items_final = self._pad_uniform(chosen_items, m, candidate_items, rng)
        return users_final, items_final

    @staticmethod
    def _take_array(pool: np.ndarray, budget: int,
                    rng: np.random.Generator) -> np.ndarray:
        """Up to ``budget`` entries of ``pool``; draws only when it must."""
        if pool.size <= budget:
            return pool
        picks = rng.choice(pool.size, size=budget, replace=False)
        return pool[picks]


class RandomSampler(ContextSampler):
    """Uniform sampler: targets plus random candidates (ablation baseline)."""

    name = "random"

    def sample(self, graph, target_users, target_items, n, m, rng,
               candidate_users, candidate_items):
        users, items = self._prepare_targets(target_users, target_items, n, m)
        users = self._pad_uniform(users, n, np.asarray(candidate_users, dtype=np.int64), rng)
        items = self._pad_uniform(items, m, np.asarray(candidate_items, dtype=np.int64), rng)
        return users, items


class FeatureSimilaritySampler(ContextSampler):
    """Cosine similarity of one-hot attribute vectors (ablation variant).

    Candidates most similar to the targets (in mean one-hot attribute space)
    fill the context.  On integer attribute codes, the cosine of one-hot
    encodings reduces to the fraction of matching attributes, which is what
    we compute directly.
    """

    name = "feature"

    def __init__(self, dataset: RatingDataset):
        self.dataset = dataset

    def sample(self, graph, target_users, target_items, n, m, rng,
               candidate_users, candidate_items):
        users, items = self._prepare_targets(target_users, target_items, n, m)
        users = self._fill_by_similarity(
            users, n, np.asarray(candidate_users, dtype=np.int64),
            self.dataset.user_attributes, rng,
        )
        items = self._fill_by_similarity(
            items, m, np.asarray(candidate_items, dtype=np.int64),
            self.dataset.item_attributes, rng,
        )
        return users, items

    @staticmethod
    def _fill_by_similarity(selected, budget, pool, attributes, rng):
        if len(selected) >= budget:
            return selected[:budget]
        remaining = np.setdiff1d(pool, selected)
        if remaining.size == 0:
            return selected
        if len(selected) == 0:
            order = rng.permutation(len(remaining))
        else:
            target_attrs = attributes[selected]  # (t, h)
            cand_attrs = attributes[remaining]  # (c, h)
            # Fraction of matching attribute codes against any target, averaged.
            matches = (cand_attrs[:, None, :] == target_attrs[None, :, :]).mean(axis=(1, 2))
            # Random tiebreak so equal-similarity candidates are not biased by id.
            order = np.lexsort((rng.random(len(remaining)), -matches))
        need = budget - len(selected)
        return np.concatenate([selected, remaining[order[:need]]])


def sampler_by_name(name: str, dataset: RatingDataset | None = None) -> ContextSampler:
    """Factory for the three sampling strategies of §VI-E."""
    key = name.lower()
    if key == "neighborhood":
        return NeighborhoodSampler()
    if key == "random":
        return RandomSampler()
    if key == "feature":
        if dataset is None:
            raise ValueError("feature sampler needs the dataset for attributes")
        return FeatureSimilaritySampler(dataset)
    raise KeyError(f"unknown sampler {name!r}; choose neighborhood|random|feature")
