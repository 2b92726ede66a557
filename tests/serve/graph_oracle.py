"""Test oracle for the incremental data plane: rebuild and compare.

:func:`rebuild_checked` wraps :meth:`RatingGraph.apply_deltas` so that
every derived graph is compared with a full rebuild from the parent's
``triples()`` plus the deltas, and an ``AssertionError`` is raised unless
the two are bitwise identical (:meth:`RatingGraph.identical_to`).  A full
rebuild per update is slow, so the check lives here, in the tests, rather
than behind a service switch.
"""

from __future__ import annotations

import numpy as np

from repro.data import RatingGraph


def rebuild_checked(apply_deltas, checks: list):
    """``apply_deltas`` asserting each result equals a rebuild; the size of
    every checked delta batch is appended to ``checks``."""

    def checked(graph: RatingGraph, deltas: np.ndarray) -> RatingGraph:
        derived = apply_deltas(graph, deltas)
        rebuilt = RatingGraph(np.concatenate([graph.triples(), deltas]),
                              graph.num_users, graph.num_items)
        if not derived.identical_to(rebuilt):
            raise AssertionError(
                "incremental apply_deltas diverged from the full rebuild "
                f"on a {len(deltas)}-delta batch")
        checks.append(len(deltas))
        return derived

    return checked
