"""The incremental data plane: apply_deltas vs rebuild equivalence,
GraphStore generation/epoch semantics, and fine-grained invalidation.

The load-bearing property is *bitwise equivalence*: a graph grown through
the O(deltas) copy-on-write path must be indistinguishable from one fully
rebuilt from ``triples()`` + deltas — property-tested here over random
delta batches (new pairs, re-rates, in-batch duplicates), because the
serving tier's bit-identity guarantee rests on it.
"""

import numpy as np
import pytest

from repro.data import RatingGraph
from repro.serve import GraphStore, PredictionService, dedupe_deltas
from repro.serve.dataplane import EntityVersions

from .graph_oracle import rebuild_checked


@pytest.fixture
def rebuild_checks(monkeypatch):
    """Hold every graph derivation in the test to a full rebuild; returns
    the sizes of the checked delta batches."""
    checks = []
    monkeypatch.setattr(RatingGraph, "apply_deltas",
                        rebuild_checked(RatingGraph.apply_deltas, checks))
    return checks


def random_graph(rng, num_users=20, num_items=15, num_edges=60):
    users = rng.integers(num_users, size=num_edges)
    items = rng.integers(num_items, size=num_edges)
    values = rng.integers(1, 6, size=num_edges).astype(np.float64)
    triples = np.stack([users, items, values], axis=1).astype(np.float64)
    # The constructor dedupes pairs itself (dict comprehension: last wins).
    return RatingGraph(triples, num_users, num_items)


def random_deltas(rng, graph, size):
    """A delta batch mixing new pairs, re-rates, and in-batch duplicates."""
    users = rng.integers(graph.num_users, size=size)
    items = rng.integers(graph.num_items, size=size)
    values = rng.integers(1, 6, size=size).astype(np.float64)
    return np.stack([users, items, values], axis=1).astype(np.float64)


class TestApplyDeltas:
    def test_random_batches_identical_to_rebuild(self):
        """Property: across random graphs and delta batches, incremental
        derivation is bitwise identical to a from-scratch rebuild."""
        rng = np.random.default_rng(0)
        for trial in range(20):
            graph = random_graph(rng)
            deltas = dedupe_deltas(graph, random_deltas(rng, graph, 12))
            derived = graph.apply_deltas(deltas)
            rebuilt = RatingGraph(np.concatenate([graph.triples(), deltas]),
                                  graph.num_users, graph.num_items)
            assert derived.identical_to(rebuilt), f"trial {trial} diverged"
            assert rebuilt.identical_to(derived)

    def test_chained_batches_identical_to_rebuild(self):
        """Deltas applied over many rounds match one cumulative rebuild."""
        rng = np.random.default_rng(1)
        graph = random_graph(rng)
        derived = graph
        all_triples = [graph.triples()]
        for _ in range(5):
            deltas = dedupe_deltas(derived, random_deltas(rng, derived, 6))
            derived = derived.apply_deltas(deltas)
            all_triples.append(deltas)
        rebuilt = RatingGraph(np.concatenate(all_triples),
                              graph.num_users, graph.num_items)
        assert derived.identical_to(rebuilt)

    def test_parent_graph_untouched(self):
        """Copy-on-write: the parent keeps its adjacency and ratings."""
        graph = RatingGraph(np.array([[0, 0, 3.0]]), 2, 2)
        before = graph.triples().copy()
        derived = graph.apply_deltas(np.array([[0, 1, 5.0], [1, 0, 2.0]]))
        assert np.array_equal(graph.triples(), before)
        assert graph.rating(0, 1) is None
        assert derived.rating(0, 1) == 5.0
        # Untouched rows are shared, touched rows are fresh arrays.
        assert derived.num_edges == 3

    def test_rerate_keeps_delta_value_and_degree(self):
        graph = RatingGraph(np.array([[0, 0, 3.0]]), 2, 2)
        derived = graph.apply_deltas(np.array([[0, 0, 1.0]]))
        assert derived.rating(0, 0) == 1.0
        assert derived.user_degree(0) == 1

    def test_duplicate_pair_in_batch_last_wins(self):
        graph = RatingGraph(np.empty((0, 3)), 2, 2)
        derived = graph.apply_deltas(np.array([[0, 1, 2.0], [0, 1, 4.0]]))
        assert derived.rating(0, 1) == 4.0
        assert derived.num_edges == 1

    def test_empty_deltas_return_self(self):
        graph = RatingGraph(np.array([[0, 0, 3.0]]), 2, 2)
        assert graph.apply_deltas(np.empty((0, 3))) is graph

    def test_out_of_range_ids_rejected(self):
        graph = RatingGraph(np.empty((0, 3)), 2, 2)
        with pytest.raises(ValueError):
            graph.apply_deltas(np.array([[2, 0, 1.0]]))
        with pytest.raises(ValueError):
            graph.apply_deltas(np.array([[0, -1, 1.0]]))

    def test_identical_to_detects_differences(self):
        a = RatingGraph(np.array([[0, 0, 3.0]]), 2, 2)
        assert not a.identical_to(RatingGraph(np.array([[0, 0, 4.0]]), 2, 2))
        assert not a.identical_to(RatingGraph(np.array([[0, 1, 3.0]]), 2, 2))
        assert not a.identical_to(RatingGraph(np.array([[0, 0, 3.0]]), 3, 2))
        assert a.identical_to(RatingGraph(np.array([[0, 0, 3.0]]), 2, 2))


class TestEntityVersions:
    def test_changed_since_tracks_bumps(self):
        versions = EntityVersions(4, 4)
        versions.bump(np.array([1]), np.array([2]), generation=3)
        assert versions.changed_since([1], [], 2)
        assert versions.changed_since([], [2], 0)
        assert not versions.changed_since([1], [2], 3)
        assert not versions.changed_since([0], [3], 0)

    def test_none_and_empty_are_unchanged(self):
        versions = EntityVersions(2, 2)
        versions.bump(np.array([0]), np.array([0]), generation=1)
        assert not versions.changed_since(None, None, 0)
        assert not versions.changed_since([], [], 0)


class TestGraphStore:
    def make_store(self, **kwargs):
        graph = RatingGraph(np.array([[0, 0, 3.0], [1, 1, 4.0]]), 4, 4)
        return GraphStore(graph, np.array([0, 1]), np.array([0, 1]),
                          rating_range=(1.0, 5.0), **kwargs)

    def test_apply_bumps_generation_not_epoch(self):
        store = self.make_store()
        result = store.apply(np.array([[0, 1, 5.0]]))
        assert result.applied == 1
        assert not result.full_invalidation
        assert store.generation == 1
        assert store.epoch == 0

    def test_pool_growth_forces_full_invalidation(self):
        store = self.make_store()
        result = store.apply(np.array([[2, 0, 5.0]]))  # user 2 not in pool
        assert result.full_invalidation
        assert store.epoch == 1
        # The pool grew to contain the new entity.
        assert 2 in store.state.candidate_users

    def test_noop_batch_notifies_but_does_not_bump(self):
        store = self.make_store()
        seen = []
        store.subscribe(seen.append)
        result = store.apply(np.array([[0, 0, 3.0]]))  # restatement
        assert result.applied == 0 and result.skipped == 1
        assert store.generation == 0
        assert len(seen) == 1 and seen[0].applied == 0

    def test_changed_since_after_apply(self):
        store = self.make_store()
        store.apply(np.array([[0, 1, 5.0]]))
        assert store.changed_since([0], [], 0)
        assert store.changed_since([], [1], 0)
        assert not store.changed_since([1], [0], 0)
        assert not store.changed_since([0], [1], 1)

    def test_verify_mode_asserts_equivalence(self, rebuild_checks):
        store = self.make_store()
        store.apply(np.array([[0, 1, 5.0], [1, 0, 2.0], [0, 0, 1.0]]))
        assert store.generation == 1
        assert rebuild_checks == [3]

    def test_rebuild_oracle_catches_a_diverged_derivation(self):
        graph = RatingGraph(np.array([[0, 0, 3.0]]), 2, 2)
        ignore_deltas = rebuild_checked(lambda graph, deltas: graph, [])
        with pytest.raises(AssertionError, match="diverged"):
            ignore_deltas(graph, np.array([[1, 1, 4.0]]))

    def test_stats_counts(self):
        store = self.make_store()
        store.apply(np.array([[0, 1, 5.0], [0, 0, 3.0]]))  # 1 applied 1 skip
        store.apply(np.array([[2, 2, 1.0]]))               # full (pool growth)
        stats = store.stats()
        assert stats["updates_total"] == 2
        assert stats["applied_total"] == 2
        assert stats["skipped_total"] == 1
        assert stats["partial_invalidations"] == 1
        assert stats["full_invalidations"] == 1

    def test_rating_log_tees_applied_only(self):
        class Log:
            def __init__(self):
                self.batches = []

            def append(self, deltas):
                self.batches.append(np.array(deltas))

        log = Log()
        graph = RatingGraph(np.array([[0, 0, 3.0]]), 4, 4)
        store = GraphStore(graph, np.array([0]), np.array([0]),
                           rating_range=(1.0, 5.0), rating_log=log)
        store.apply(np.array([[0, 0, 3.0]]))  # restatement: no tee
        store.apply(np.array([[0, 1, 5.0], [0, 0, 3.0]]))
        assert len(log.batches) == 1
        assert np.array_equal(log.batches[0], np.array([[0, 1, 5.0]]))

    @pytest.mark.parametrize("bad", [
        [1, 1, np.nan],        # NaN would pass the dedupe (NaN != anything)
        [1, 1, np.inf],
        [3.7, 0, 4.0],         # astype(int64) would truncate it to user 3
        [0, 1.5, 4.0],
        [4, 0, 4.0],           # out of range (4 users)
        [0, -1, 4.0],
        [np.nan, 0, 4.0],
        [1, 1, 9.0],           # a 9 on the 1-5 scale
        [1, 1, 0.5],           # below the scale
        [1, 1, -np.inf],
    ])
    def test_bad_delta_rejects_whole_batch(self, bad):
        logged = []
        store = self.make_store()
        store.rating_log = type("Log", (), {"append": logged.append})()
        seen = []
        store.subscribe(seen.append)
        before = store.state
        with pytest.raises(ValueError):
            store.apply(np.array([[0, 1, 5.0], bad]))
        assert store.state is before
        assert store.generation == 0
        assert store.state.graph.rating(0, 1) != 5.0
        assert seen == [] and logged == []
        assert store.stats()["updates_total"] == 0

    def test_rating_scale_bounds_are_inclusive(self):
        store = self.make_store()
        result = store.apply(np.array([[0, 1, 1.0], [1, 0, 5.0]]))
        assert result.applied == 2

    def test_out_of_scale_message_names_the_range(self):
        store = self.make_store()
        with pytest.raises(ValueError, match=r"rating in \[1, 5\]"):
            store.apply(np.array([[0, 1, 9.0]]))

    def test_snapshot_positional_compatibility(self):
        """GraphSnapshot must stay a 5-tuple with generation at index 3
        (the batcher's coalescing key reads graph_state[3])."""
        store = self.make_store()
        snapshot = store.state
        assert snapshot[3] == snapshot.generation
        assert snapshot[4] == snapshot.epoch


class TestServiceIncrementalInvalidation:
    """End-to-end: untouched entries survive, invalidation stays sound."""

    def test_untouched_entries_survive_and_results_stay_exact(
            self, serve_model, ml_split, serve_tasks):
        """An update touching only entities outside an entry's tag spares
        it, and the spared entry still returns bit-identical scores."""
        task_a, task_b = serve_tasks[0], serve_tasks[1]
        with PredictionService.from_split(serve_model, ml_split, serve_tasks) \
                as service:
            scores_a = service.predict(task_a.user, task_a.query_items,
                                       task_a.support_items)
            service.predict(task_b.user, task_b.query_items,
                            task_b.support_items)
            assert len(service.cache) == 2
            # Craft a delta disjoint from task_a's tag: pick a pool user
            # and item that task_a's contexts never touched.
            key_a = next(iter(service.cache._tags))
            tags = dict(service.cache._tags)
            tag_a = next(tag for key, tag in tags.items()
                         if key[2] == task_a.user)
            snapshot = service.graph_store.state
            user = next(int(u) for u in snapshot.candidate_users
                        if int(u) not in tag_a[0]
                        and not any(int(u) in t[0] and key[2] != task_a.user
                                    for key, t in tags.items()))
            item = next(int(i) for i in snapshot.candidate_items
                        if int(i) not in tag_a[1]
                        and not snapshot.graph.has_rating(user, int(i)))
            applied = service.update_ratings(np.array([[user, item, 4.0]]))
            assert applied == 1
            stats = service.cache.stats
            assert stats.entries_spared >= 1
            assert stats.invalidation_precision > 0
            # The spared entry serves a hit that is still bit-identical.
            hits_before = stats.hits
            again = service.predict(task_a.user, task_a.query_items,
                                    task_a.support_items)
            assert np.array_equal(again, scores_a)

    def test_random_update_stream_stays_identical_to_rebuilds(
            self, serve_model, ml_split, serve_tasks, rebuild_checks):
        """Serving through many incremental updates (each derivation held
        to a full rebuild) matches a service rebuilt from scratch at the
        final graph."""
        from repro.core.predictor import build_serving_graph

        rng = np.random.default_rng(7)
        graph, users, items = build_serving_graph(ml_split, serve_tasks)
        task = serve_tasks[0]
        deltas = []
        pool_users = [int(u) for u in users if u != task.user]
        for _ in range(8):
            deltas.append([
                int(rng.choice(pool_users)), int(rng.choice(items)),
                float(rng.integers(1, 6))])
        deltas = np.asarray(deltas, dtype=np.float64)

        with PredictionService(serve_model, graph, users, items) as service:
            for row in deltas:
                service.update_ratings(row[None])
            assert rebuild_checks  # the stream applied at least one delta
            incremental = service.predict(task.user, task.query_items,
                                          task.support_items)
            final_state = service.graph_store.state

        with PredictionService(serve_model, final_state.graph,
                               final_state.candidate_users,
                               final_state.candidate_items) as rebuilt:
            reference = rebuilt.predict(task.user, task.query_items,
                                        task.support_items)
        assert np.array_equal(incremental, reference)


class TestServiceRatingScale:
    """The served model's rating scale guards ``update_ratings``."""

    def test_store_takes_the_models_rating_range(
            self, serve_model, ml_split, serve_tasks):
        with PredictionService.from_split(serve_model, ml_split, serve_tasks) \
                as service:
            assert service.graph_store.rating_range == serve_model.rating_range
            assert serve_model.rating_range == tuple(
                ml_split.dataset.rating_range)

    def test_out_of_scale_update_rejected_and_nothing_applied(
            self, serve_model, ml_split, serve_tasks):
        logged = []
        log = type("Log", (), {"append": logged.append})()
        task = serve_tasks[0]
        with PredictionService.from_split(serve_model, ml_split, serve_tasks,
                                          rating_log=log) as service:
            before = service.graph_store.state
            user = int(before.candidate_users[0])
            item = next(int(i) for i in before.candidate_items
                        if not before.graph.has_rating(user, int(i)))
            low, high = serve_model.rating_range
            with pytest.raises(ValueError, match="rating in"):
                service.update_ratings(np.array([[user, item, low],
                                                 [user, item, high + 4.0]]))
            assert service.graph_store.state is before
            assert service.graph_generation == 0
            assert not service.graph_store.state.graph.has_rating(user, item)
            assert logged == []
            # The service keeps serving, and an in-scale delta still lands.
            service.predict(task.user, task.query_items, task.support_items)
            assert service.update_ratings(np.array([[user, item, high]])) == 1
            assert len(logged) == 1
