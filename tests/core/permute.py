"""Context permutation: the helper the Property 5.1 (equivariance) tests use.

HIRE's output must permute with its input (§V, Property 5.1).  The tests
check that by scoring a context and the same context with its users and
items reordered; this builds the reordered one.  It lives here, not in
``src/``, because nothing but the tests runs it.
"""

from __future__ import annotations

import numpy as np

from repro.core import PredictionContext


def permute_context(context: PredictionContext, user_perm: np.ndarray,
                    item_perm: np.ndarray) -> PredictionContext:
    """``context`` with its users reordered by ``user_perm`` and its items
    by ``item_perm``."""
    cells = np.ix_(user_perm, item_perm)
    return PredictionContext(
        users=context.users[user_perm],
        items=context.items[item_perm],
        ratings=context.ratings[cells],
        observed=context.observed[cells],
        revealed=context.revealed[cells],
        query=context.query[cells],
    )
