"""LRU cache for assembled prediction contexts.

Neighbourhood sampling is the dominant online cost of a request (BFS over
the rating graph, Python-heavy — the same observation GraphHINGE makes for
metapath neighbourhoods), and under the serving layer's per-request RNG
derivation (:func:`repro.core.task_chunk_rng`) context assembly is a *pure
function* of its key.  That makes assembled contexts safely memoisable:
a cache hit returns bit-identical contexts to a fresh assembly.

Keys are built by :func:`context_cache_key` from the entity frontier
(user, query items, support items), the sampler, the context budgets, and
the graph store's *epoch* — the counter that bumps only on full
invalidations (candidate-pool growth), not on every update.  Ordinary
rating deltas instead evict **fine-grained**: each entry is tagged with
the users/items its assembly actually read, and
:meth:`ContextCache.invalidate_entities` drops exactly the entries whose
tag intersects the changed entities, sparing the rest
(:class:`repro.serve.dataplane.GraphStore` drives this).  A put-time
``guard`` closes the in-flight race: a worker pinned to a pre-update
snapshot re-checks the per-entity version map under the cache lock before
its entry lands, so a stale assembly is dropped instead of cached.

Eviction sweeps are O(touched entries): a reverse per-entity index maps
every tagged entity to the keys carrying it, so ``invalidate_entities``
unions the changed entities' key sets instead of scanning the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = [
    "ContextCache",
    "CacheStats",
    "context_cache_key",
]

_MISSING = object()


def context_cache_key(graph_epoch: int, sampler_name: str, user: int,
                      query_items, support_items, context_users: int,
                      context_items: int, reveal_fraction: float,
                      seed: int) -> tuple:
    """Hashable key identifying one request's assembled contexts.

    Everything that influences assembly appears in the key; two requests
    with equal keys are guaranteed (by the pure per-request RNG derivation)
    to assemble identical contexts.  ``graph_epoch`` is the full-
    invalidation counter, **not** the per-update generation — keeping the
    generation out of the key is what lets entries survive updates that
    never touched their entities (staleness against those updates is
    handled by entity tags + the put guard instead).
    """
    return (
        int(graph_epoch),
        str(sampler_name),
        int(user),
        tuple(int(i) for i in query_items),
        tuple(int(i) for i in support_items),
        int(context_users),
        int(context_items),
        float(reveal_fraction),
        int(seed),
    )


class CacheStats:
    """Hit/miss/eviction/invalidation counts of one cache (snapshot-friendly).

    ``invalidations`` counts full clears; ``partial_invalidations``,
    ``entries_evicted``, and ``entries_spared`` describe the fine-grained
    path (per sweep: how many tagged entries intersected the changed
    entities vs. survived), and ``stale_puts`` counts in-flight assemblies
    dropped by the put-time guard.
    """

    __slots__ = ("hits", "misses", "evictions", "invalidations",
                 "partial_invalidations", "entries_evicted", "entries_spared",
                 "stale_puts")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.partial_invalidations = 0
        self.entries_evicted = 0
        self.entries_spared = 0
        self.stale_puts = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def invalidation_precision(self) -> float | None:
        """Fraction of entries spared across fine-grained sweeps.

        Under the old global-bump scheme this is identically 0 (every
        sweep dropped everything); ``None`` until a sweep has seen a
        non-empty cache.
        """
        scanned = self.entries_evicted + self.entries_spared
        if scanned == 0:
            return None
        return self.entries_spared / scanned

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "partial_invalidations": self.partial_invalidations,
            "entries_evicted": self.entries_evicted,
            "entries_spared": self.entries_spared,
            "stale_puts": self.stale_puts,
            "hit_rate": self.hit_rate,
            "invalidation_precision": self.invalidation_precision,
        }


class ContextCache:
    """Thread-safe LRU cache with entity tags.

    ``max_entries`` bounds memory (least-recently-used eviction).  Nothing
    expires on a timer: staleness is exact, through the epoch in the key
    and the entity tags.

    Entries put with ``users``/``items`` tags participate in fine-grained
    invalidation (:meth:`invalidate_entities`); untagged entries are
    conservatively treated as depending on everything and fall in every
    sweep.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._tags: dict[tuple, tuple[frozenset, frozenset]] = {}
        # Reverse index entity -> {keys tagged with it}, so an eviction
        # sweep unions the changed entities' key sets instead of scanning
        # every entry's tags (O(touched entries), not O(cache size)).
        # Untagged keys depend on everything and fall in every sweep.
        self._user_index: dict[int, set] = {}
        self._item_index: dict[int, set] = {}
        self._untagged: set = set()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def _link(self, key: tuple, users, items) -> None:
        """Index ``key`` under its tag entities (lock held)."""
        if users is None and items is None:
            self._untagged.add(key)
            return
        tag_users = (frozenset(int(u) for u in users)
                     if users is not None else frozenset())
        tag_items = (frozenset(int(i) for i in items)
                     if items is not None else frozenset())
        self._tags[key] = (tag_users, tag_items)
        for user in tag_users:
            self._user_index.setdefault(user, set()).add(key)
        for item in tag_items:
            self._item_index.setdefault(item, set()).add(key)

    def _unlink(self, key: tuple) -> None:
        """Remove ``key`` from the tag index (lock held)."""
        self._untagged.discard(key)
        tag = self._tags.pop(key, None)
        if tag is None:
            return
        for user in tag[0]:
            keys = self._user_index.get(user)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._user_index[user]
        for item in tag[1]:
            keys = self._item_index.get(item)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._item_index[item]

    def get(self, key: tuple, default=None):
        """The cached value, refreshing recency; ``default`` on miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: tuple, value, *, users=None, items=None,
            generation: int | None = None, guard=None) -> bool:
        """Insert an entry, optionally tagged with the entities it read.

        ``guard`` is a staleness predicate ``(users, items, generation) ->
        bool`` (the graph store's ``changed_since``), evaluated **under the
        cache lock**: if any tagged entity changed after the assembly's
        pinned ``generation``, the entry is dropped instead of inserted
        (``stats.stale_puts``) and ``False`` is returned.  This closes the
        window where a worker pinned to a pre-update snapshot finishes
        after the update's eviction sweep — the sweep runs strictly after
        the version bump, so whichever of sweep/put enters the lock last
        sees the other's effect.
        """
        with self._lock:
            if guard is not None and guard(users, items, generation or 0):
                self.stats.stale_puts += 1
                return False
            if key in self._entries:
                self._entries.move_to_end(key)
                self._unlink(key)  # re-put may carry different tags
            self._entries[key] = value
            self._link(key, users, items)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._unlink(evicted)
                self.stats.evictions += 1
            return True

    def invalidate(self) -> None:
        """Drop every entry (full invalidation: pool growth, rebuild mode)."""
        with self._lock:
            self._entries.clear()
            self._tags.clear()
            self._user_index.clear()
            self._item_index.clear()
            self._untagged.clear()
            self.stats.invalidations += 1

    def invalidate_entities(self, users, items) -> tuple[int, int]:
        """Drop exactly the entries whose tag intersects the changed
        entities; return ``(evicted, spared)``.

        Soundness rests on the tag being a superset of the assembly's
        graph read-set (see :mod:`repro.serve.dataplane`); untagged
        entries are evicted unconditionally.  The reverse per-entity
        index makes each sweep O(touched entries): only the changed
        entities' key sets are unioned, never the whole cache.
        """
        with self._lock:
            doomed = set(self._untagged)
            for user in users:
                doomed.update(self._user_index.get(int(user), ()))
            for item in items:
                doomed.update(self._item_index.get(int(item), ()))
            for key in doomed:
                del self._entries[key]
                self._unlink(key)
            spared = len(self._entries)
            self.stats.partial_invalidations += 1
            self.stats.entries_evicted += len(doomed)
            self.stats.entries_spared += spared
            return len(doomed), spared

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

