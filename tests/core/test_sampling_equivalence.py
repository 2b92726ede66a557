"""NeighborhoodSampler vs the loop oracle: bit-identity and allocations.

The CSR-vectorized sampler is an *implementation* of the loop sampler
(``loop_sampler.py``), not a variant: from the same rng state both must
return the same entities in the same order and leave the generator in
the same state — across random graphs, budgets, candidate pools, and
delta-updated snapshots (whose CSR views carry a stale-row overlay).  A tracemalloc
check pins the fast path's steady state: no per-hop Python structures may
accumulate, and a sampling pass must allocate less transient memory than
the loop reference's per-entity sets and lists.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NeighborhoodSampler
from repro.data import RatingGraph, movielens_like

from .loop_sampler import LoopNeighborhoodSampler


def _random_graph(seed: int, num_users: int, num_items: int,
                  ratings_per_user: float) -> RatingGraph:
    ds = movielens_like(num_users=num_users, num_items=num_items, seed=seed,
                        ratings_per_user=ratings_per_user)
    return RatingGraph(ds.ratings, ds.num_users, ds.num_items)


def _random_pools(rng, num_users, num_items):
    """Random (but non-empty) candidate pools, sometimes strict subsets."""
    users = rng.choice(num_users, size=rng.integers(1, num_users + 1),
                       replace=False)
    items = rng.choice(num_items, size=rng.integers(1, num_items + 1),
                       replace=False)
    return np.sort(users), np.sort(items)


def _assert_same_sample(graph, targets, n, m, seed, pools):
    """Both samplers from identical rng states: same output, same end state."""
    target_users, target_items = targets
    candidate_users, candidate_items = pools
    rng_loop = np.random.default_rng([seed, 17])
    rng_vec = np.random.default_rng([seed, 17])
    users_loop, items_loop = LoopNeighborhoodSampler().sample(
        graph, target_users, target_items, n, m, rng_loop,
        candidate_users, candidate_items)
    users_vec, items_vec = NeighborhoodSampler().sample(
        graph, target_users, target_items, n, m, rng_vec,
        candidate_users, candidate_items)
    np.testing.assert_array_equal(users_loop, users_vec)
    np.testing.assert_array_equal(items_loop, items_vec)
    # Equal end states guarantee everything downstream (the reveal draw,
    # the next chunk) is bit-identical too.
    assert rng_loop.bit_generator.state == rng_vec.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    num_users=st.integers(4, 32),
    num_items=st.integers(4, 32),
    ratings_per_user=st.floats(1.0, 8.0),
)
def test_vectorized_equals_loop_on_random_graphs(seed, n, m, num_users,
                                                 num_items, ratings_per_user):
    graph = _random_graph(seed, num_users, num_items, ratings_per_user)
    pool_rng = np.random.default_rng([seed, 3])
    pools = _random_pools(pool_rng, num_users, num_items)
    target_user = int(pool_rng.integers(num_users))
    # Several target items, as serving chunks pass (query slice + supports).
    num_targets = int(pool_rng.integers(1, min(m, num_items) + 1))
    target_items = pool_rng.integers(0, num_items, size=num_targets)
    _assert_same_sample(graph, (np.array([target_user]), target_items),
                        n, m, seed, pools)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_vectorized_equals_loop_after_deltas(seed):
    """Equivalence must survive ``apply_deltas``-derived snapshots, whose
    CSR adjacency is carried over with a stale-row overlay rather than
    rebuilt — and match a from-scratch graph of the same triples."""
    graph = _random_graph(seed, 20, 16, 4.0)
    # Materialise the CSR views first so apply_deltas derives (not rebuilds).
    graph.user_adjacency(), graph.item_adjacency()
    rng = np.random.default_rng([seed, 5])
    deltas = []
    for _ in range(6):  # new pairs and re-rates both land in the overlay
        user = int(rng.integers(20))
        item = int(rng.integers(16))
        deltas.append([user, item, float(rng.integers(1, 6))])
    derived = graph.apply_deltas(np.asarray(deltas, dtype=np.float64))
    rebuilt = RatingGraph(derived.triples(), 20, 16)
    assert derived.identical_to(rebuilt)

    pools = (np.arange(20), np.arange(16))
    targets = (np.array([int(rng.integers(20))]),
               np.array([int(rng.integers(16))]))
    _assert_same_sample(derived, targets, 8, 8, seed, pools)
    # The derived snapshot's overlaid CSR and a fresh graph's rebuilt CSR
    # must drive identical sampling.
    rng_derived = np.random.default_rng([seed, 23])
    rng_rebuilt = np.random.default_rng([seed, 23])
    sampler = NeighborhoodSampler()
    from_derived = sampler.sample(derived, *targets, 8, 8, rng_derived, *pools)
    from_rebuilt = sampler.sample(rebuilt, *targets, 8, 8, rng_rebuilt, *pools)
    np.testing.assert_array_equal(from_derived[0], from_rebuilt[0])
    np.testing.assert_array_equal(from_derived[1], from_rebuilt[1])


@pytest.fixture
def busy_graph():
    return _random_graph(0, 120, 90, 12.0)


def _sample_once(graph, sampler, seed=0):
    rng = np.random.default_rng([seed, 9])
    return sampler.sample(graph, np.array([3]), np.array([5, 7, 11]), 24, 24,
                          rng, np.arange(120), np.arange(90))


def test_vectorized_steady_state_allocations(busy_graph):
    """Steady-state vectorized sampling: nothing survives a pass, and the
    transient footprint stays under the loop reference's (which builds
    per-hop Python sets/lists of boxed ints — the cost the CSR gather
    removes)."""
    vec = NeighborhoodSampler()
    loop = LoopNeighborhoodSampler()
    for _ in range(3):  # warm: CSR build, caches, interned small ints
        _sample_once(busy_graph, vec)
        _sample_once(busy_graph, loop)

    gc.collect()
    tracemalloc.start()
    base = tracemalloc.take_snapshot()
    for _ in range(20):
        _sample_once(busy_graph, vec)
    gc.collect()
    snap = tracemalloc.take_snapshot()
    growth = sum(stat.size_diff for stat in snap.compare_to(base, "filename")
                 if "repro" in (stat.traceback[0].filename or ""))

    tracemalloc.clear_traces()
    tracemalloc.reset_peak()
    _sample_once(busy_graph, vec)
    vec_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.clear_traces()
    tracemalloc.reset_peak()
    _sample_once(busy_graph, loop)
    loop_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    # 20 sampling passes may not leave per-hop lists (or anything else)
    # behind; 2 KiB covers counter churn and interning noise.
    assert growth < 2048, f"steady-state sampling leaked {growth} bytes"
    assert vec_peak < loop_peak, (
        f"vectorized pass allocated {vec_peak} B transient vs loop "
        f"{loop_peak} B — the fast path should be the lighter one")
