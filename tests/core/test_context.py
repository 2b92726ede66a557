"""PredictionContext: mask invariants and build_context behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionContext, build_context
from repro.data import RatingGraph, movielens_like

from .permute import permute_context


@pytest.fixture
def graph():
    triples = np.array([
        [0, 0, 4.0], [0, 1, 2.0],
        [1, 0, 5.0], [1, 2, 3.0],
        [2, 1, 1.0],
    ])
    return RatingGraph(triples, num_users=3, num_items=3)


USERS = np.arange(3)
ITEMS = np.arange(3)


class TestInvariants:
    def test_valid_construction(self):
        observed = np.array([[True, False], [True, True]])
        revealed = np.array([[True, False], [False, False]])
        query = observed & ~revealed
        ctx = PredictionContext(
            users=np.array([0, 1]), items=np.array([0, 1]),
            ratings=np.zeros((2, 2)), observed=observed,
            revealed=revealed, query=query,
        )
        assert ctx.n == 2 and ctx.m == 2
        assert ctx.num_query() == 2

    def test_revealed_must_be_observed(self):
        with pytest.raises(ValueError, match="revealed"):
            PredictionContext(
                users=np.array([0]), items=np.array([0]),
                ratings=np.zeros((1, 1)),
                observed=np.array([[False]]),
                revealed=np.array([[True]]),
                query=np.array([[False]]),
            )

    def test_query_revealed_disjoint(self):
        with pytest.raises(ValueError, match="overlap"):
            PredictionContext(
                users=np.array([0]), items=np.array([0]),
                ratings=np.zeros((1, 1)),
                observed=np.array([[True]]),
                revealed=np.array([[True]]),
                query=np.array([[True]]),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="ratings"):
            PredictionContext(
                users=np.array([0, 1]), items=np.array([0]),
                ratings=np.zeros((1, 1)),
                observed=np.zeros((2, 1), dtype=bool),
                revealed=np.zeros((2, 1), dtype=bool),
                query=np.zeros((2, 1), dtype=bool),
            )


class TestBuildContext:
    def test_reveal_fraction(self, graph):
        rng = np.random.default_rng(0)
        ctx = build_context(graph, USERS, ITEMS, rng, reveal_fraction=0.4)
        assert ctx.observed.sum() == 5
        assert ctx.revealed.sum() == 2  # round(0.4 * 5)
        assert ctx.query.sum() == 3

    def test_zero_reveal(self, graph):
        rng = np.random.default_rng(0)
        ctx = build_context(graph, USERS, ITEMS, rng, reveal_fraction=0.0)
        assert ctx.revealed.sum() == 0
        assert ctx.query.sum() == ctx.observed.sum()

    def test_invalid_fraction(self, graph):
        with pytest.raises(ValueError):
            build_context(graph, USERS, ITEMS, np.random.default_rng(0),
                          reveal_fraction=1.0)

    def test_forced_query_stays_masked(self, graph):
        rng = np.random.default_rng(0)
        forced = np.zeros((3, 3), dtype=bool)
        forced[0, 0] = True
        for _ in range(10):
            ctx = build_context(graph, USERS, ITEMS, rng,
                                reveal_fraction=0.8, forced_query=forced)
            assert not ctx.revealed[0, 0]
            assert ctx.query[0, 0]

    def test_forced_query_must_be_observed(self, graph):
        forced = np.zeros((3, 3), dtype=bool)
        forced[2, 2] = True  # unobserved cell
        with pytest.raises(ValueError, match="unobserved"):
            build_context(graph, USERS, ITEMS, np.random.default_rng(0),
                          forced_query=forced)

    def test_forced_reveal_always_visible(self, graph):
        forced = np.zeros((3, 3), dtype=bool)
        forced[1, 0] = True
        ctx = build_context(graph, USERS, ITEMS, np.random.default_rng(0),
                            reveal_fraction=0.0, forced_reveal=forced)
        assert ctx.revealed[1, 0]
        assert not ctx.query[1, 0]

    def test_forced_conflict_rejected(self, graph):
        forced = np.zeros((3, 3), dtype=bool)
        forced[0, 0] = True
        with pytest.raises(ValueError, match="both"):
            build_context(graph, USERS, ITEMS, np.random.default_rng(0),
                          forced_query=forced, forced_reveal=forced)

    def test_ratings_match_graph(self, graph):
        ctx = build_context(graph, USERS, ITEMS, np.random.default_rng(0))
        assert ctx.ratings[0, 0] == 4.0
        assert ctx.ratings[1, 2] == 3.0
        assert ctx.ratings[2, 2] == 0.0 and not ctx.observed[2, 2]


class TestPermuted:
    def test_permutation_consistency(self, graph):
        ctx = build_context(graph, USERS, ITEMS, np.random.default_rng(0),
                            reveal_fraction=0.4)
        up, ip = np.array([2, 0, 1]), np.array([1, 2, 0])
        permuted = permute_context(ctx, up, ip)
        np.testing.assert_array_equal(permuted.users, ctx.users[up])
        np.testing.assert_array_equal(permuted.ratings,
                                      ctx.ratings[np.ix_(up, ip)])
        np.testing.assert_array_equal(permuted.query,
                                      ctx.query[np.ix_(up, ip)])
        assert permuted.num_query() == ctx.num_query()


@settings(max_examples=20, deadline=None)
@given(
    fraction=st.floats(0.0, 0.9),
    seed=st.integers(0, 1000),
)
def test_property_masks_partition_observed(fraction, seed):
    """revealed ∪ query == observed and revealed ∩ query == ∅, always."""
    ds = movielens_like(num_users=15, num_items=12, seed=seed, ratings_per_user=5.0)
    graph = RatingGraph(ds.ratings, ds.num_users, ds.num_items)
    rng = np.random.default_rng(seed)
    ctx = build_context(graph, np.arange(10), np.arange(10), rng,
                        reveal_fraction=fraction)
    np.testing.assert_array_equal(ctx.revealed | ctx.query, ctx.observed)
    assert not (ctx.revealed & ctx.query).any()
    expected_revealed = min(int(round(fraction * ctx.observed.sum())),
                            int(ctx.observed.sum()))
    assert ctx.revealed.sum() == expected_revealed
