"""Test oracle for :class:`repro.data.RatingGraph`'s rating reads.

:class:`DictRatings` is the graph's earlier storage: one Python dict with a
``(user, item)`` tuple key per rating, per-user adjacency rows from
``np.unique``, and a ``rating_matrix`` that runs one ``np.isin`` per
context row and one dict lookup per hit.  It is slow and obviously
correct, so the property tests hold the array-backed graph to it.
"""

from __future__ import annotations

import numpy as np


class DictRatings:
    """Dict-backed ratings; a duplicated pair keeps its last occurrence."""

    def __init__(self, ratings: np.ndarray, num_users: int, num_items: int):
        self.num_users = num_users
        self.num_items = num_items
        self.lookup: dict[tuple[int, int], float] = {}
        self._add(ratings)

    def _add(self, ratings: np.ndarray) -> None:
        for user, item, value in np.asarray(ratings, dtype=np.float64).reshape(-1, 3):
            self.lookup[(int(user), int(item))] = float(value)
        self.user_items = [np.empty(0, dtype=np.int64)] * self.num_users
        for user in range(self.num_users):
            rated = [i for (u, i) in self.lookup if u == user]
            if rated:
                self.user_items[user] = np.unique(np.array(rated, dtype=np.int64))

    def apply_deltas(self, deltas: np.ndarray) -> "DictRatings":
        derived = DictRatings(np.empty((0, 3)), self.num_users, self.num_items)
        derived.lookup = dict(self.lookup)
        derived._add(deltas)
        return derived

    def rating(self, user: int, item: int) -> float | None:
        return self.lookup.get((int(user), int(item)))

    def has_rating(self, user: int, item: int) -> bool:
        return (int(user), int(item)) in self.lookup

    def triple_set(self) -> set[tuple[int, int, float]]:
        return {(u, i, v) for (u, i), v in self.lookup.items()}

    def rating_matrix(self, users: np.ndarray, items: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        values = np.zeros((len(users), len(items)))
        observed = np.zeros((len(users), len(items)), dtype=bool)
        for row, user in enumerate(users):
            rated = self.user_items[user]
            if rated.size == 0:
                continue
            hits = np.isin(items, rated)
            for col in np.flatnonzero(hits):
                values[row, col] = self.lookup[(int(user), int(items[col]))]
                observed[row, col] = True
        return values, observed
