"""The per-entity loop BFS sampler: the oracle for ``NeighborhoodSampler``.

This is the original implementation of the paper's neighbourhood sampling
(§IV-B): Python sets and lists, one graph lookup per frontier entity.
``repro.core.NeighborhoodSampler`` computes the same process over CSR
adjacency arrays; ``test_sampling_equivalence.py`` checks the two return
the same entities in the same order and leave the generator in the same
state.  It lives here, not in ``src/``, because nothing but the tests
runs it.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling import ContextSampler


class LoopNeighborhoodSampler(ContextSampler):
    """BFS over the rating graph, one Python loop per frontier entity."""

    name = "neighborhood"

    def sample(self, graph, target_users, target_items, n, m, rng,
               candidate_users, candidate_items):
        users, items = self._prepare_targets(target_users, target_items, n, m)
        chosen_users = list(users)
        chosen_items = list(items)
        user_set = set(chosen_users)
        item_set = set(chosen_items)
        frontier_users = list(users)
        frontier_items = list(items)
        allowed_users = set(np.asarray(candidate_users, dtype=np.int64).tolist()) | user_set
        allowed_items = set(np.asarray(candidate_items, dtype=np.int64).tolist()) | item_set

        # Hop-by-hop expansion until both budgets fill or frontier dries up.
        while (len(chosen_users) < n or len(chosen_items) < m) and (frontier_users or frontier_items):
            next_users: list[int] = []
            next_items: list[int] = []
            # Neighbours of frontier items are users; of frontier users, items.
            if len(chosen_users) < n:
                neighbor_users: set[int] = set()
                for item in frontier_items:
                    neighbor_users.update(
                        int(u) for u in graph.users_of_item(item)
                        if u not in user_set and u in allowed_users
                    )
                picked = self._take(sorted(neighbor_users), n - len(chosen_users), rng)
                chosen_users.extend(picked)
                user_set.update(picked)
                next_users = picked
            if len(chosen_items) < m:
                neighbor_items: set[int] = set()
                for user in frontier_users:
                    neighbor_items.update(
                        int(i) for i in graph.items_of_user(user)
                        if i not in item_set and i in allowed_items
                    )
                picked = self._take(sorted(neighbor_items), m - len(chosen_items), rng)
                chosen_items.extend(picked)
                item_set.update(picked)
                next_items = picked
            if not next_users and not next_items:
                break
            frontier_users = next_users
            frontier_items = next_items

        users_final = self._pad_uniform(np.asarray(chosen_users, dtype=np.int64), n,
                                        np.asarray(candidate_users, dtype=np.int64), rng)
        items_final = self._pad_uniform(np.asarray(chosen_items, dtype=np.int64), m,
                                        np.asarray(candidate_items, dtype=np.int64), rng)
        return users_final, items_final

    @staticmethod
    def _take(pool: list[int], budget: int, rng: np.random.Generator) -> list[int]:
        if len(pool) <= budget:
            return list(pool)
        picks = rng.choice(len(pool), size=budget, replace=False)
        return [pool[p] for p in picks]
