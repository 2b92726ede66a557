"""RatingGraph adjacency correctness (including against brute force)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import RatingGraph

from .rating_oracle import DictRatings


@pytest.fixture
def tiny_graph():
    ratings = np.array([
        [0, 0, 5.0],
        [0, 1, 3.0],
        [1, 1, 4.0],
        [2, 2, 1.0],
    ])
    return RatingGraph(ratings, num_users=4, num_items=3)


class TestAdjacency:
    def test_items_of_user(self, tiny_graph):
        np.testing.assert_array_equal(tiny_graph.items_of_user(0), [0, 1])
        np.testing.assert_array_equal(tiny_graph.items_of_user(1), [1])
        assert tiny_graph.items_of_user(3).size == 0

    def test_users_of_item(self, tiny_graph):
        np.testing.assert_array_equal(tiny_graph.users_of_item(1), [0, 1])
        assert tiny_graph.users_of_item(0).size == 1

    def test_degrees(self, tiny_graph):
        assert tiny_graph.user_degree(0) == 2
        assert tiny_graph.user_degree(3) == 0
        assert tiny_graph.item_degree(1) == 2

    def test_rating_lookup(self, tiny_graph):
        assert tiny_graph.rating(0, 1) == 3.0
        assert tiny_graph.rating(1, 0) is None
        assert tiny_graph.has_rating(2, 2)
        assert not tiny_graph.has_rating(3, 0)

    def test_num_edges(self, tiny_graph):
        assert tiny_graph.num_edges == 4

    def test_empty_graph(self):
        graph = RatingGraph(np.empty((0, 3)), num_users=3, num_items=2)
        assert graph.num_edges == 0
        assert graph.items_of_user(0).size == 0

    def test_duplicate_ratings_deduplicated_in_adjacency(self):
        ratings = np.array([[0, 0, 5.0], [0, 0, 3.0]])
        graph = RatingGraph(ratings, num_users=1, num_items=1)
        assert graph.user_degree(0) == 1

    def test_duplicate_ratings_keep_last_occurrence(self):
        ratings = np.array([[1, 0, 2.0], [0, 1, 5.0], [1, 0, 4.0],
                            [0, 1, 3.0], [1, 0, 1.0]])
        graph = RatingGraph(ratings, num_users=2, num_items=2)
        assert graph.num_edges == 2
        assert graph.rating(0, 1) == 3.0
        assert graph.rating(1, 0) == 1.0
        values, observed = graph.rating_matrix(np.array([0, 1]), np.array([0, 1]))
        np.testing.assert_array_equal(values, [[0.0, 3.0], [1.0, 0.0]])
        np.testing.assert_array_equal(graph.triples(),
                                      [[0, 1, 3.0], [1, 0, 1.0]])

    def test_out_of_range_ids_are_unrated(self, tiny_graph):
        assert tiny_graph.rating(-1, 0) is None
        assert not tiny_graph.has_rating(4, 0)
        assert not tiny_graph.has_rating(0, -1)
        _, observed = tiny_graph.rating_matrix(np.array([0, 1]),
                                               np.array([-1, 3, 1]))
        np.testing.assert_array_equal(observed, [[False, False, True],
                                                 [False, False, True]])

    def test_pair_ratings(self, tiny_graph):
        values, observed = tiny_graph.pair_ratings(np.array([0, 2, 1, 0]),
                                                   np.array([1, 2, 0, 0]))
        np.testing.assert_array_equal(values, [3.0, 1.0, 0.0, 5.0])
        np.testing.assert_array_equal(observed, [True, True, False, True])


class TestRatingMatrix:
    def test_submatrix_values(self, tiny_graph):
        values, observed = tiny_graph.rating_matrix(np.array([0, 1]), np.array([1, 2]))
        np.testing.assert_allclose(values, [[3.0, 0.0], [4.0, 0.0]])
        np.testing.assert_array_equal(observed, [[True, False], [True, False]])

    def test_submatrix_empty_user(self, tiny_graph):
        values, observed = tiny_graph.rating_matrix(np.array([3]), np.array([0, 1, 2]))
        assert not observed.any()
        assert (values == 0).all()


@settings(max_examples=25, deadline=None)
@given(
    num_users=st.integers(1, 10),
    num_items=st.integers(1, 10),
    num_ratings=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
def test_property_adjacency_matches_bruteforce(num_users, num_items, num_ratings, seed):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, num_users, size=num_ratings)
    items = rng.integers(0, num_items, size=num_ratings)
    values = rng.integers(1, 6, size=num_ratings).astype(float)
    triples = np.stack([users, items, values], axis=1).astype(float)
    graph = RatingGraph(triples, num_users, num_items)

    for user in range(num_users):
        expected = np.unique(items[users == user])
        np.testing.assert_array_equal(graph.items_of_user(user), expected)
    for item in range(num_items):
        expected = np.unique(users[items == item])
        np.testing.assert_array_equal(graph.users_of_item(item), expected)
    # rating() returns the last write for duplicated pairs.
    for u, i, v in triples:
        assert graph.rating(int(u), int(i)) is not None


def assert_matches_oracle(graph, oracle, rng):
    """Every rating read of ``graph`` agrees with the dict oracle."""
    for user in range(graph.num_users):
        for item in range(graph.num_items):
            assert graph.rating(user, item) == oracle.rating(user, item)
            assert graph.has_rating(user, item) == oracle.has_rating(user, item)
    triples = {(int(u), int(i), v) for u, i, v in graph.triples()}
    assert triples == oracle.triple_set()
    assert graph.num_edges == len(oracle.lookup)
    # Context blocks, duplicates on either axis included.
    for _ in range(4):
        users = rng.integers(graph.num_users, size=rng.integers(0, 8))
        items = rng.integers(graph.num_items, size=rng.integers(0, 8))
        values, observed = graph.rating_matrix(users, items)
        want_values, want_observed = oracle.rating_matrix(users, items)
        assert values.tobytes() == want_values.tobytes()
        assert observed.tobytes() == want_observed.tobytes()
        pair_items = rng.integers(graph.num_items, size=users.size)
        pair_values, pair_observed = graph.pair_ratings(users, pair_items)
        want = [oracle.rating(u, i) for u, i in zip(users, pair_items)]
        np.testing.assert_array_equal(pair_observed,
                                      [v is not None for v in want])
        np.testing.assert_array_equal(pair_values,
                                      [0.0 if v is None else v for v in want])
    rebuilt = RatingGraph(graph.triples(), graph.num_users, graph.num_items)
    assert graph.identical_to(rebuilt) and rebuilt.identical_to(graph)
    for user in range(graph.num_users):
        np.testing.assert_array_equal(
            graph.user_adjacency().gather(np.array([user])),
            graph.items_of_user(user))
    for item in range(graph.num_items):
        np.testing.assert_array_equal(
            graph.item_adjacency().gather(np.array([item])),
            graph.users_of_item(item))


def delta_batch(rng, graph):
    """Re-rates, in-batch duplicates, a user's first rating, and new pairs
    for up to four distinct users (enough to push the CSR stale fraction
    of a graph this small past 1/8)."""
    triples = graph.triples()
    rows = []
    if len(triples):
        rerated = triples[rng.integers(len(triples), size=2)].copy()
        rerated[:, 2] = rng.integers(1, 6, size=2)
        rows.extend(rerated.tolist())
    unrated_users = [u for u in range(graph.num_users)
                     if graph.user_degree(u) == 0]
    if unrated_users:
        rows.append([unrated_users[0], rng.integers(graph.num_items), 2.0])
    open_users = [u for u in range(graph.num_users)
                  if graph.user_degree(u) < graph.num_items]
    for user in rng.permutation(open_users)[:4]:
        unrated = np.setdiff1d(np.arange(graph.num_items),
                               graph.items_of_user(user))
        rows.append([user, rng.choice(unrated), rng.integers(1, 6)])
    batch = np.asarray(rows, dtype=float).reshape(-1, 3)
    if len(batch):
        # The same pairs again with new values: the later occurrence wins.
        repeated = batch[rng.integers(len(batch), size=2)].copy()
        repeated[:, 2] = rng.integers(1, 6, size=2)
        batch = np.concatenate([batch, repeated])
    return rng.permutation(batch)


@settings(max_examples=25, deadline=None)
@given(
    num_users=st.integers(1, 12),
    num_items=st.integers(2, 10),
    num_ratings=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
def test_property_delta_chains_match_dict_oracle(num_users, num_items,
                                                 num_ratings, seed):
    """Random graphs and apply_deltas chains read exactly like the dict
    oracle at every step, and stay bitwise identical to a rebuild."""
    rng = np.random.default_rng(seed)
    # At most half the cells rated, so the first batch has room to grow.
    num_ratings = min(num_ratings, num_users * num_items // 2)
    triples = np.stack([rng.integers(num_users, size=num_ratings),
                        rng.integers(num_items, size=num_ratings),
                        rng.integers(1, 6, size=num_ratings)],
                       axis=1).astype(float)
    graph = RatingGraph(triples, num_users, num_items)
    oracle = DictRatings(triples, num_users, num_items)
    assert_matches_oracle(graph, oracle, rng)
    csr_rebuilt = False
    for _ in range(5):
        deltas = delta_batch(rng, graph)
        previous_view = graph.user_adjacency()
        graph = graph.apply_deltas(deltas)
        oracle = oracle.apply_deltas(deltas)
        # Past a 1/8 stale fraction the derived view is rebuilt.
        carried = graph._csr_users
        csr_rebuilt |= graph.user_adjacency() is not carried
        assert carried.indices is previous_view.indices
        assert_matches_oracle(graph, oracle, rng)
    assert csr_rebuilt
