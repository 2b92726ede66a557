"""The incremental serving data plane: graph state + fine-grained
invalidation.

One :class:`GraphStore` owns the mutable serving state — the visible
:class:`~repro.data.bipartite.RatingGraph`, the candidate pools, and two
monotonic counters — behind a lock, so request workers read consistent
snapshots while updates land.

``apply()`` validates and dedupes a delta batch (last value per pair wins,
no-op restatements dropped), derives the next graph through the
copy-on-write :meth:`RatingGraph.apply_deltas` path (O(users + items)
pointer copies plus O(degree) per touched entity), and publishes a new
immutable :class:`GraphSnapshot`.
Subscribed services are then told exactly *which* entities changed, via an
:class:`UpdateResult`, so their caches evict only the entries whose
assembly read a changed user or item.

Two counters with distinct jobs:

* **generation** increments on every applied update.  It keys request
  coalescing (requests admitted under different graphs never share a
  result) and the per-entity version map.
* **epoch** increments only on *full* invalidations — candidate-pool
  growth (uniform padding draws depend on pool contents, so every cached
  assembly is suspect).  It keys the context
  cache, so entries survive updates that did not touch their entities.

The per-entity version map (:class:`EntityVersions`) records, per user and
per item, the generation at which it last changed.  ``changed_since``
answers "did any of these entities change after generation g?" — the
eviction predicate, and also the cache's put-time guard closing the race
where an in-flight worker pinned to an old snapshot finishes assembling
*after* the update's eviction sweep (see
:meth:`~repro.serve.cache.ContextCache.put`).

Why entity tags are a sound dependency set: the BFS sampler only reads
adjacency of entities it has already chosen (targets and picked
neighbours), ``build_context`` only reads ratings of chosen × chosen
cells, and forced-reveal checks ratings of the target user — so every
graph read during an assembly touches an entity in the final context's
``users``/``items``.  The one read outside that set is uniform padding
from the candidate pools, which is exactly why pool growth forces a full
invalidation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..data.bipartite import RatingGraph

__all__ = [
    "GraphSnapshot",
    "EntityVersions",
    "UpdateResult",
    "GraphStore",
    "dedupe_deltas",
]

_EMPTY = np.empty(0, dtype=np.int64)


class GraphSnapshot(NamedTuple):
    """One immutable, atomically-published view of the serving graph state.

    Requests pin the snapshot they were admitted under and execute against
    it, so a concurrent update can never leak into (or fail) an accepted
    request.  Being a ``NamedTuple`` keeps it compatible with the
    positional ``graph_state`` tuple the batcher carries
    (``snapshot[3] == snapshot.generation``).
    """

    graph: RatingGraph
    candidate_users: np.ndarray
    candidate_items: np.ndarray
    generation: int
    epoch: int


@dataclass(frozen=True)
class UpdateResult:
    """What one ``GraphStore.apply`` call did, for subscribers and callers.

    ``applied``/``skipped`` count delta triples (skipped = duplicates
    within the batch plus restatements of the graph's current values);
    ``changed_users``/``changed_items`` are the deduplicated entities the
    applied deltas touched; ``full_invalidation`` means entity-level
    eviction is insufficient (the candidate pools grew) and subscribers
    must drop everything.
    """

    applied: int
    skipped: int
    changed_users: np.ndarray = field(default_factory=lambda: _EMPTY)
    changed_items: np.ndarray = field(default_factory=lambda: _EMPTY)
    full_invalidation: bool = False
    generation: int = 0


def _validate_deltas(graph: RatingGraph, ratings: np.ndarray,
                     rating_range: tuple[float, float]) -> None:
    """Reject a ``(k, 3)`` delta batch with a bad id or rating.

    Ids must be integral and inside the graph; ratings must lie inside
    ``rating_range`` (which also rejects NaN and infinities).  Checked
    before :func:`dedupe_deltas` builds its keys: ``astype(int64)`` would
    truncate an id of 3.7 to 3, and a NaN rating compares unequal to every
    stored value, so it would survive the dedupe into the graph and the
    rating log.
    """
    users, items, values = ratings[:, 0], ratings[:, 1], ratings[:, 2]
    low, high = rating_range
    bad = ~((values >= low) & (values <= high))
    for ids, size in ((users, graph.num_users), (items, graph.num_items)):
        bad |= (ids != np.floor(ids)) | ~((ids >= 0) & (ids < size))
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"rating delta {row} {tuple(ratings[row].tolist())} needs integral "
            f"ids inside the {graph.num_users}x{graph.num_items} graph and a "
            f"rating in [{low:g}, {high:g}]; the batch was not applied")


def dedupe_deltas(graph: RatingGraph, ratings: np.ndarray) -> np.ndarray:
    """Collapse a delta batch to its effective updates.

    Keeps the last occurrence per ``(user, item)`` (batch order is arrival
    order, so later is fresher) and drops triples whose value the graph
    already holds.
    """
    ratings = np.asarray(ratings, dtype=np.float64).reshape(-1, 3)
    if not ratings.size:
        return ratings
    keys = (ratings[:, 0].astype(np.int64) * graph.num_items
            + ratings[:, 1].astype(np.int64))
    # np.unique on the reversed keys finds each pair's LAST occurrence.
    _, reversed_first = np.unique(keys[::-1], return_index=True)
    keep = np.sort(len(ratings) - 1 - reversed_first)
    deduped = ratings[keep]
    held, observed = graph.pair_ratings(deduped[:, 0], deduped[:, 1])
    return deduped[~observed | (held != deduped[:, 2])]


class EntityVersions:
    """Per-entity last-changed generations (the fine-grained version map).

    ``users[u]`` / ``items[i]`` hold the graph generation at which that
    entity's ratings last changed (0 = unchanged since the store was
    built).  ``changed_since`` is the staleness predicate for anything
    tagged with the entities it read and the generation it read them at.

    Writes happen under the owning store's lock; reads are lock-free numpy
    gathers.  The publication order in :meth:`GraphStore.apply` (bump
    versions → publish snapshot → notify subscribers) plus the cache's
    put-time guard makes that race-safe — see ``docs/serving.md``.
    """

    def __init__(self, num_users: int, num_items: int):
        self.users = np.zeros(num_users, dtype=np.int64)
        self.items = np.zeros(num_items, dtype=np.int64)

    def bump(self, users: np.ndarray, items: np.ndarray, generation: int) -> None:
        """Record that these entities changed at ``generation``."""
        if len(users):
            self.users[np.asarray(users, dtype=np.int64)] = generation
        if len(items):
            self.items[np.asarray(items, dtype=np.int64)] = generation

    def changed_since(self, users, items, generation: int) -> bool:
        """Did any listed entity change after ``generation``?"""
        users = np.asarray(users if users is not None else _EMPTY, dtype=np.int64)
        items = np.asarray(items if items is not None else _EMPTY, dtype=np.int64)
        return bool((users.size and (self.users[users] > generation).any())
                    or (items.size and (self.items[items] > generation).any()))


class GraphStore:
    """Thread-safe owner of the serving graph state.

    ``apply()`` is the single write path; everything else reads the
    atomically-swapped :attr:`state` snapshot.  Subscribers (the
    :class:`~repro.serve.service.PredictionService` built on this store)
    receive every applied update's :class:`UpdateResult` and translate it
    into cache/embedding-store invalidation; with a ``rating_log``
    attached, applied deltas also tee into the :mod:`repro.online`
    fine-tuning loop.

    ``rating_range`` is the ``(low, high)`` scale deltas must fall in —
    the served model's :attr:`~repro.core.HIRE.rating_range`.  Graphs are
    derived via :meth:`RatingGraph.apply_deltas`.
    """

    def __init__(self, graph: RatingGraph, candidate_users: np.ndarray,
                 candidate_items: np.ndarray, *,
                 rating_range: tuple[float, float], rating_log=None):
        self.rating_range = (float(rating_range[0]), float(rating_range[1]))
        self.rating_log = rating_log
        # Warm the flat CSR adjacency views up front: the vectorised
        # sampler gathers frontiers through them on every request, so the
        # one O(edges) build belongs here, not on the first request's
        # latency.  apply() keeps them warm across derivations.
        graph.user_adjacency()
        graph.item_adjacency()
        self.versions = EntityVersions(graph.num_users, graph.num_items)
        self._lock = threading.Lock()
        self._state = GraphSnapshot(
            graph,
            np.asarray(candidate_users, dtype=np.int64),
            np.asarray(candidate_items, dtype=np.int64),
            0,
            0,
        )
        self._listeners: list = []
        self._updates_total = 0
        self._applied_total = 0
        self._skipped_total = 0
        self._partial_invalidations = 0
        self._full_invalidations = 0

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> GraphSnapshot:
        """The current snapshot (assignment is atomic; no lock needed)."""
        return self._state

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def epoch(self) -> int:
        return self._state.epoch

    def changed_since(self, users, items, generation: int) -> bool:
        """Staleness predicate over the per-entity version map."""
        return self.versions.changed_since(users, items, generation)

    def stats(self) -> dict:
        """Update/invalidation counters as a JSON-able snapshot."""
        with self._lock:
            return {
                "generation": self._state.generation,
                "epoch": self._state.epoch,
                "updates_total": self._updates_total,
                "applied_total": self._applied_total,
                "skipped_total": self._skipped_total,
                "partial_invalidations": self._partial_invalidations,
                "full_invalidations": self._full_invalidations,
            }

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def subscribe(self, listener) -> None:
        """Register a callable receiving every apply's :class:`UpdateResult`."""
        with self._lock:
            self._listeners.append(listener)

    def apply(self, ratings: np.ndarray) -> UpdateResult:
        """Dedupe and apply a ``(user, item, rating)`` delta batch.

        Version bumps land strictly before the new snapshot is published,
        and subscribers are notified strictly after — that ordering, plus
        the cache's put-time guard, is what makes fine-grained
        invalidation race-free against in-flight assemblies (see the
        module docstring).  Returns the batch's :class:`UpdateResult`;
        ``applied == 0`` means nothing changed (and nothing was
        invalidated or teed).  Raises ``ValueError``, applying nothing, when
        any delta has a non-integral or out-of-range id or a rating outside
        :attr:`rating_range`.
        """
        ratings = np.asarray(ratings, dtype=np.float64).reshape(-1, 3)
        with self._lock:
            graph, users_pool, items_pool, generation, epoch = self._state
            _validate_deltas(graph, ratings, self.rating_range)
            applied = dedupe_deltas(graph, ratings)
            skipped = len(ratings) - len(applied)
            self._updates_total += 1
            self._skipped_total += skipped
            if not applied.size:
                result = UpdateResult(applied=0, skipped=skipped,
                                      generation=generation)
                listeners = tuple(self._listeners)
            else:
                changed_users = np.unique(applied[:, 0].astype(np.int64))
                changed_items = np.unique(applied[:, 1].astype(np.int64))
                pool_grew = (
                    np.setdiff1d(changed_users, users_pool).size > 0
                    or np.setdiff1d(changed_items, items_pool).size > 0)
                new_graph = graph.apply_deltas(applied)
                # Keep the CSR views warm on the publish path: after an
                # incremental derive this is a stale-count check (the stale
                # marks were carried by apply_deltas), and when the stale
                # fraction crosses the rebuild threshold the O(edges)
                # rebuild lands here instead of on a request.
                new_graph.user_adjacency()
                new_graph.item_adjacency()
                generation += 1
                # Bump before publishing: a reader that sees the new
                # snapshot is guaranteed to see the new versions too.
                self.versions.bump(changed_users, changed_items, generation)
                if pool_grew:
                    epoch += 1
                    self._full_invalidations += 1
                else:
                    self._partial_invalidations += 1
                self._applied_total += len(applied)
                self._state = GraphSnapshot(
                    new_graph,
                    np.union1d(users_pool, changed_users),
                    np.union1d(items_pool, changed_items),
                    generation,
                    epoch,
                )
                result = UpdateResult(
                    applied=len(applied), skipped=skipped,
                    changed_users=changed_users, changed_items=changed_items,
                    full_invalidation=pool_grew, generation=generation)
                listeners = tuple(self._listeners)
        for listener in listeners:
            listener(result)
        if result.applied and self.rating_log is not None:
            self.rating_log.append(applied)
        return result
