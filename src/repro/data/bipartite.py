"""User-item bipartite rating graph with fast neighbourhood queries.

HIRE's context sampler (§IV-B) walks this graph hop by hop from the cold
seed entities, so adjacency lookups must be O(1) per entity.  Each user's
rated items are a sorted-unique array, and that user's rating values sit
in a float array aligned with it; each item's raters are a sorted-unique
array too.  Rating reads (:meth:`RatingGraph.rating`,
:meth:`RatingGraph.rating_matrix`, :meth:`RatingGraph.pair_ratings`) are
``searchsorted`` lookups into those rows — there is no per-pair dict.

Every graph instance is immutable; the visible rating set grows by
deriving a *new* graph — either a full rebuild from ``triples()`` plus
additions, or the copy-on-write path :meth:`RatingGraph.apply_deltas`,
which shallow-copies the per-entity lists (O(users + items) pointers),
gives only the touched entities fresh rows (O(degree) each), shares every
other row with its parent, and is asserted bitwise identical to the
rebuild (:meth:`RatingGraph.identical_to`).

Besides the per-entity adjacency arrays, each side also exposes a flat
CSR view (:class:`CSRAdjacency`: one ``indptr`` / ``indices`` pair per
direction) so the vectorised sampler can gather a whole frontier's
neighbours in one fancy-index instead of a Python loop.  The CSR arrays
are built lazily, shared with derived graphs through ``apply_deltas``
(changed entities are marked *stale* and read from their fresh per-entity
arrays until the stale fraction justifies a rebuild), and never change the
graph's semantics — :meth:`RatingGraph.items_of_user` and
:meth:`CSRAdjacency.gather` always agree.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RatingGraph", "CSRAdjacency"]

_EMPTY = np.empty(0, dtype=np.int64)

# A derived graph keeps sharing its parent's flat CSR arrays until more
# than 1/8 of a side's entities have gone stale; past that the fallback
# reads dominate and a fresh O(edges) build pays for itself.
_CSR_STALE_REBUILD_FRACTION = 8


class CSRAdjacency:
    """Flat CSR view of one adjacency direction (user→items or item→users).

    ``indptr``/``indices`` are the classic compressed-sparse-row pair over
    the graph's sorted-unique per-entity neighbour arrays.  ``stale`` marks
    entities whose adjacency changed *after* the flat arrays were built
    (via :meth:`RatingGraph.apply_deltas`); their rows are read from
    ``lists`` — the owning graph's per-entity arrays, always current — so
    a derived graph can keep sharing its parent's flat arrays (copying
    only the O(entities) stale mask) instead of rebuilding O(edges) on
    every update.
    """

    __slots__ = ("indptr", "indices", "stale", "stale_count", "lists")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 stale: np.ndarray, stale_count: int, lists: list):
        self.indptr = indptr
        self.indices = indices
        self.stale = stale
        self.stale_count = stale_count
        self.lists = lists

    @classmethod
    def from_lists(cls, lists: list) -> "CSRAdjacency":
        """Build the flat arrays from per-entity sorted-unique arrays."""
        count = len(lists)
        lengths = np.fromiter((a.size for a in lists), dtype=np.int64,
                              count=count)
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.concatenate(lists) if count and indptr[-1] else _EMPTY
        return cls(indptr, indices, np.zeros(count, dtype=bool), 0, lists)

    def derive(self, changed: np.ndarray, lists: list) -> "CSRAdjacency":
        """The view for a derived graph: same flat arrays, ``changed``
        entities marked stale and redirected to the derived ``lists``."""
        stale = self.stale.copy()
        stale[changed] = True
        return CSRAdjacency(self.indptr, self.indices, stale,
                            int(stale.sum()), lists)

    def gather(self, entities: np.ndarray) -> np.ndarray:
        """All neighbours of ``entities`` concatenated (duplicates kept).

        Entity order is irrelevant to callers (the sampler uniques the
        result), so stale rows may append after the flat gather.
        """
        entities = np.asarray(entities, dtype=np.int64)
        if entities.size == 0:
            return _EMPTY
        if self.stale_count:
            stale_here = self.stale[entities]
            if stale_here.any():
                fresh = self._gather_flat(entities[~stale_here])
                overlaid = [self.lists[int(e)] for e in entities[stale_here]]
                return np.concatenate([fresh, *overlaid])
        return self._gather_flat(entities)

    def _gather_flat(self, entities: np.ndarray) -> np.ndarray:
        starts = self.indptr[entities]
        counts = self.indptr[entities + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY
        # Positions start[k] + [0..count[k]) for every entity k, built as
        # one repeat + arange (no per-entity loop).
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return self.indices[offsets + np.arange(total)]


class RatingGraph:
    """Immutable bipartite graph over (user, item, rating) triples.

    A pair rated more than once keeps its last occurrence in ``ratings``.
    """

    def __init__(self, ratings: np.ndarray, num_users: int, num_items: int):
        ratings = np.asarray(ratings, dtype=np.float64)
        if ratings.size and ratings.ndim != 2:
            raise ValueError("ratings must be (n, 3)")
        if ratings.size == 0:
            ratings = ratings.reshape(0, 3)
        self.num_users = num_users
        self.num_items = num_items
        users, items, values = _last_per_pair(ratings)
        self.num_edges = len(users)
        self._user_items = _rows(items, users, num_users)
        self._user_values = _rows(values, users, num_users)
        # Pairs are sorted by user, so a stable sort by item leaves each
        # item's raters ascending.
        by_item = np.argsort(items, kind="stable")
        self._item_users = _rows(users[by_item], items[by_item], num_items)
        # Lazy flat CSR views (see CSRAdjacency).  Building one mutates
        # only this private slot; a racing double-build is benign (both
        # results are identical and assignment is atomic).
        self._csr_users: CSRAdjacency | None = None
        self._csr_items: CSRAdjacency | None = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def items_of_user(self, user: int) -> np.ndarray:
        """Item ids the user has rated (sorted, deduplicated)."""
        return self._user_items[user]

    def users_of_item(self, item: int) -> np.ndarray:
        """User ids who rated the item (sorted, deduplicated)."""
        return self._item_users[item]

    def user_adjacency(self) -> CSRAdjacency:
        """The flat user→items CSR view (built lazily, cached; rebuilt
        once :meth:`apply_deltas` derivations leave too many rows stale)."""
        csr = self._csr_users
        if (csr is None or csr.stale_count * _CSR_STALE_REBUILD_FRACTION
                > max(self.num_users, 1)):
            csr = CSRAdjacency.from_lists(self._user_items)
            self._csr_users = csr
        return csr

    def item_adjacency(self) -> CSRAdjacency:
        """The flat item→users CSR view (see :meth:`user_adjacency`)."""
        csr = self._csr_items
        if (csr is None or csr.stale_count * _CSR_STALE_REBUILD_FRACTION
                > max(self.num_items, 1)):
            csr = CSRAdjacency.from_lists(self._item_users)
            self._csr_items = csr
        return csr

    def user_degree(self, user: int) -> int:
        return len(self._user_items[user])

    def item_degree(self, item: int) -> int:
        return len(self._item_users[item])

    def rating(self, user: int, item: int) -> float | None:
        """Observed rating of (user, item), or None if unobserved."""
        position = self._position(user, item)
        if position is None:
            return None
        return float(self._user_values[int(user)][position])

    def has_rating(self, user: int, item: int) -> bool:
        return self._position(user, item) is not None

    def _position(self, user: int, item: int) -> int | None:
        """Index of ``item`` in ``user``'s row, or None if unrated."""
        user, item = int(user), int(item)
        if not 0 <= user < self.num_users:
            return None
        row = self._user_items[user]
        position = int(np.searchsorted(row, item))
        if position < row.size and row[position] == item:
            return position
        return None

    def pair_ratings(self, users: np.ndarray, items: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Ratings of the pairs ``(users[k], items[k])`` in one lookup.

        Returns ``(values, observed)`` shaped like ``users``, with the
        same conventions as :meth:`rating_matrix`.  User ids must lie
        inside the graph.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        row_users, rows = np.unique(users, return_inverse=True)
        return self._row_ratings(row_users, rows.reshape(users.shape), items)

    def rating_matrix(self, users: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense sub-matrix of observed ratings for a user × item block.

        Returns ``(values, observed)`` where ``observed`` is a boolean mask
        and ``values`` holds ratings at observed cells (0 elsewhere).
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return self._row_ratings(users, np.arange(len(users))[:, None],
                                 items[None, :])

    def _row_ratings(self, row_users: np.ndarray, rows: np.ndarray,
                     items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, observed)`` of the pairs ``(row_users[rows], items)``.

        ``rows`` and ``items`` broadcast together.  Each user's row is
        sorted, so the rows of ``row_users`` concatenated in order are one
        ascending array of keys ``row * num_items + item``, and every pair
        is one ``searchsorted`` against it — no loop over rows.
        """
        stride = self.num_items
        # An id outside [0, num_items) would alias a neighbouring row's key.
        queries = np.where((items >= 0) & (items < stride),
                           rows * stride + items, -1)
        values = np.zeros(queries.shape)
        row_items = [self._user_items[user] for user in row_users]
        lengths = np.fromiter(map(len, row_items), dtype=np.int64,
                              count=len(row_items))
        if not lengths.sum():
            return values, np.zeros(queries.shape, dtype=bool)
        keys = np.concatenate(row_items)
        keys += np.repeat(np.arange(len(row_items)) * stride, lengths)
        position = np.searchsorted(keys, queries)
        np.minimum(position, keys.size - 1, out=position)
        observed = keys[position] == queries
        row_values = np.concatenate([self._user_values[user]
                                     for user in row_users])
        values[observed] = row_values[position[observed]]
        return values, observed

    def triples(self) -> np.ndarray:
        """All observed (user, item, rating) triples as an (E, 3) array,
        sorted by user, then item.

        The graph is immutable; growing the visible rating set means
        deriving a new graph — via :meth:`apply_deltas` (incremental) or by
        rebuilding from ``triples()`` plus the additions.
        """
        if not self.num_edges:
            return np.empty((0, 3))
        degrees = np.fromiter(map(len, self._user_items), dtype=np.int64,
                              count=self.num_users)
        return np.column_stack([
            np.repeat(np.arange(self.num_users), degrees),
            np.concatenate(self._user_items),
            np.concatenate(self._user_values),
        ])

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def apply_deltas(self, deltas: np.ndarray) -> "RatingGraph":
        """A new graph with ``(user, item, rating)`` deltas applied.

        Copy-on-write: the per-entity lists are shallow-copied
        (O(users + items) pointers), and each touched user gets a fresh
        value row, plus fresh adjacency rows on both sides for its new
        pairs (O(degree) per touched entity).  Untouched entities share
        their arrays with this graph — both graphs stay immutable and
        internally consistent, which is what lets the serving tier pin an
        old snapshot for in-flight requests while new submissions see the
        update.

        Semantics match a full rebuild from ``triples()`` + ``deltas``
        exactly (pinned by :meth:`identical_to` against rebuilds in the
        data-plane tests): a re-rated pair keeps the delta's value, a duplicated
        pair within ``deltas`` keeps its last occurrence.
        """
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.size == 0:
            return self
        if deltas.ndim != 2 or deltas.shape[1] != 3:
            raise ValueError("deltas must be (n, 3) (user, item, rating)")
        users, items, values = _last_per_pair(deltas)
        if (users < 0).any() or (users >= self.num_users).any():
            raise ValueError(f"delta user ids outside [0, {self.num_users})")
        if (items < 0).any() or (items >= self.num_items).any():
            raise ValueError(f"delta item ids outside [0, {self.num_items})")

        derived = self.__class__.__new__(self.__class__)
        derived.num_users = self.num_users
        derived.num_items = self.num_items
        derived._user_items = list(self._user_items)
        derived._user_values = list(self._user_values)
        derived._item_users = list(self._item_users)
        new_pair = np.zeros(len(users), dtype=bool)
        for user, start, stop in _runs(users):
            row = self._user_items[user]
            row_items, row_values = items[start:stop], values[start:stop]
            position = np.searchsorted(row, row_items)
            known = position < row.size
            known[known] = row[position[known]] == row_items[known]
            merged = self._user_values[user].copy()
            merged[position[known]] = row_values[known]
            fresh = ~known
            if fresh.any():
                derived._user_items[user] = np.insert(
                    row, position[fresh], row_items[fresh])
                merged = np.insert(merged, position[fresh], row_values[fresh])
                new_pair[start:stop] = fresh
            derived._user_values[user] = merged
        # Only new pairs change adjacency (re-rates touch values, not
        # neighbour sets); group them by item for the item side.
        new_users, new_items = users[new_pair], items[new_pair]
        by_item = np.argsort(new_items, kind="stable")
        new_users, new_items = new_users[by_item], new_items[by_item]
        for item, start, stop in _runs(new_items):
            row = self._item_users[item]
            raters = new_users[start:stop]
            derived._item_users[item] = np.insert(
                row, np.searchsorted(row, raters), raters)
        derived.num_edges = self.num_edges + int(new_pair.sum())
        # Carry the flat CSR views forward: just the entities of new pairs
        # go stale.  Unbuilt views stay unbuilt.
        derived._csr_users = (
            None if self._csr_users is None else self._csr_users.derive(
                new_users, derived._user_items))
        derived._csr_items = (
            None if self._csr_items is None else self._csr_items.derive(
                new_items, derived._item_users))
        return derived

    def identical_to(self, other: "RatingGraph") -> bool:
        """Bitwise structural equality: dimensions, every adjacency array,
        and every rating value (exact bit compare — the assertion the
        data-plane tests hold incremental derivation to)."""
        if (self.num_users != other.num_users
                or self.num_items != other.num_items
                or self.num_edges != other.num_edges):
            return False
        return (
            all(np.array_equal(a, b) for a, b in
                zip(self._user_items, other._user_items))
            and all(a.tobytes() == b.tobytes() for a, b in
                    zip(self._user_values, other._user_values))
            and all(np.array_equal(a, b) for a, b in
                    zip(self._item_users, other._item_users))
        )


def _last_per_pair(triples: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(users, items, values)`` of ``triples`` with one entry per
    ``(user, item)`` pair — its last occurrence — sorted by user, then item."""
    users = triples[:, 0].astype(np.int64)
    items = triples[:, 1].astype(np.int64)
    # lexsort is stable: a repeated pair's occurrences stay in input order,
    # so the last of each run is the last occurrence.
    order = np.lexsort((items, users))
    users, items, values = users[order], items[order], triples[order, 2]
    last = np.ones(len(users), dtype=bool)
    last[:-1] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
    return users[last], items[last], values[last]


def _rows(values: np.ndarray, keys: np.ndarray, count: int) -> list[np.ndarray]:
    """Split ``values`` into one row per key in ``[0, count)``; ``keys``
    is sorted and aligned with ``values``."""
    bounds = np.searchsorted(keys, np.arange(count + 1))
    return [values[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def _runs(keys: np.ndarray):
    """``(key, start, stop)`` for each run of equal values in sorted ``keys``."""
    if keys.size == 0:
        return
    starts = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    stops = np.append(starts[1:], keys.size)
    for start, stop in zip(starts.tolist(), stops.tolist()):
        yield int(keys[start]), start, stop
