"""Online mutations under load: delta dedupe, rating-log tee, and hot swaps
or graph updates that land mid-flight without losing a single future."""

import threading

import numpy as np
import pytest

from repro.core import HIRE, HIREConfig, HIREPredictor
from repro.eval.tasks import build_eval_tasks
from repro.online import RatingLog
from repro.serve import (
    ModelRegistry,
    PredictionService,
    RequestError,
    ServiceConfig,
)


def make_service(models, split, tasks, rating_log=None, **overrides):
    return PredictionService.from_split(models, split, tasks,
                                        config=ServiceConfig(**overrides),
                                        rating_log=rating_log)


def references(model, split, tasks):
    predictor = HIREPredictor(model, split, tasks, seed=0, per_task_rng=True)
    return [predictor.predict_task(task) for task in tasks]


@pytest.fixture(scope="module")
def other_serve_model(ml_dataset):
    return HIRE(ml_dataset, HIREConfig(num_blocks=2, num_heads=2, attr_dim=8,
                                       seed=7))


class TestDeltaDedupe:
    def test_batch_keeps_most_recent_per_pair(self, serve_model, ml_split,
                                              serve_tasks):
        log = RatingLog()
        task = serve_tasks[0]
        user, item = task.user, int(task.query_items[0])
        with make_service(serve_model, ml_split, serve_tasks,
                          rating_log=log) as service:
            applied = service.update_ratings([[user, item, 2.0],
                                              [user, item, 5.0]])
            assert applied == 1
            # The tee records exactly what was applied: the LAST value.
            assert np.array_equal(log.since(0), [[user, item, 5.0]])
            with pytest.raises(RequestError, match="already rated"):
                service.submit(user, [item])

    def test_restating_current_values_is_a_noop(self, serve_model, ml_split,
                                                serve_tasks):
        log = RatingLog()
        task = serve_tasks[0]
        user, item = task.user, int(task.query_items[0])
        warm = ml_split.train_ratings()[0]
        with make_service(serve_model, ml_split, serve_tasks,
                          rating_log=log) as service:
            assert service.update_ratings([[user, item, 4.0]]) == 1
            assert service.graph_generation == 1
            # Same value again, plus a warm pair restating its training
            # rating: nothing changes, so nothing is rebuilt or teed.
            assert service.update_ratings([[user, item, 4.0], warm]) == 0
            assert service.graph_generation == 1
            assert len(log) == 1

    def test_mixed_batch_applies_only_the_changes(self, serve_model,
                                                  ml_split, serve_tasks):
        task = serve_tasks[0]
        user = task.user
        first, second = (int(i) for i in task.query_items[:2])
        with make_service(serve_model, ml_split, serve_tasks) as service:
            service.update_ratings([[user, first, 3.0]])
            applied = service.update_ratings([[user, first, 3.0],
                                              [user, second, 2.0],
                                              [user, second, 4.0]])
            assert applied == 1
            assert service.graph_generation == 2


class TestMidFlightSwap:
    @pytest.mark.parametrize("swap", ["activate", "add"])
    def test_responses_match_one_of_the_two_models(
            self, ml_dataset, serve_model, other_serve_model, ml_split,
            serve_tasks, swap):
        """Hot-swapping the registry while requests are in flight: every
        future resolves, and every response is bit-identical to the old or
        the new model's sequential reference — never a blend.  ``add``
        registers and activates in one call, as ``OnlineController``
        promotes; ``activate`` switches to an already registered version."""
        ref_old = references(serve_model, ml_split, serve_tasks)
        ref_new = references(other_serve_model, ml_split, serve_tasks)
        registry = ModelRegistry(ml_dataset)
        registry.add("v1", serve_model)
        if swap == "activate":
            registry.add("v2", other_serve_model, activate=False)

        with make_service(registry, ml_split, serve_tasks, num_workers=2,
                          max_batch_size=4, queue_size=256) as service:
            futures = []
            for round_index in range(20):
                for task_index, task in enumerate(serve_tasks):
                    futures.append((task_index, service.submit(
                        task.user, task.query_items, task.support_items)))
                if round_index == 10:
                    if swap == "activate":
                        registry.activate("v2")
                    else:
                        registry.add("v2", other_serve_model, activate=True)
            for task_index, future in futures:
                scores = future.result(60)
                assert (np.array_equal(scores, ref_old[task_index])
                        or np.array_equal(scores, ref_new[task_index]))
            # The swap is visible once the queue drains.
            task = serve_tasks[0]
            assert np.array_equal(
                service.predict(task.user, task.query_items,
                                task.support_items),
                ref_new[0])

    def test_in_flight_requests_survive_rating_their_pairs(
            self, serve_model, ml_split, serve_tasks):
        """Rating a queried pair mid-flight must not fail the already
        admitted futures — they execute against their admission-time graph
        snapshot (bit-identical to the pre-update reference); only NEW
        submits on that pair are refused."""
        reference = references(serve_model, ml_split, serve_tasks)
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks,
                          num_workers=2) as service:
            futures = [(i, service.submit(t.user, t.query_items,
                                          t.support_items))
                       for i, t in enumerate(serve_tasks) for _ in range(3)]
            assert service.update_ratings(
                [[task.user, int(task.query_items[0]), 5.0]]) == 1
            for task_index, future in futures:
                assert np.array_equal(future.result(60),
                                      reference[task_index])
            with pytest.raises(RequestError, match="already rated"):
                service.submit(task.user, [int(task.query_items[0])])


class TestConcurrentUpdatesAndSubmits:
    def test_no_future_lost_under_interleaved_graph_updates(
            self, serve_model, ml_split, serve_tasks):
        """A writer thread streams rating deltas (graph rebuilds, generation
        bumps) while the main thread keeps submitting: every future resolves
        with the right shape and no generation mismatch surfaces as an
        error."""
        update_tasks = build_eval_tasks(ml_split, "user", min_query=2,
                                        seed=3, max_tasks=4)
        serve_pairs = {(t.user, int(i))
                       for t in serve_tasks for i in t.query_items}
        update_pairs = [(t.user, int(i)) for t in update_tasks
                        for i in t.query_items
                        if (t.user, int(i)) not in serve_pairs]
        assert update_pairs, "fixture tasks unexpectedly overlap completely"

        applied_total = []
        with make_service(serve_model, ml_split, serve_tasks, num_workers=2,
                          max_batch_size=4, queue_size=512) as service:
            def writer():
                # Stored ratings are whole stars, so an in-scale 4.5 never
                # equals one: every delta is a real change regardless of the
                # pair's prior state.
                for user, item in update_pairs:
                    applied_total.append(
                        service.update_ratings([[user, item, 4.5]]))

            thread = threading.Thread(target=writer)
            futures = []
            thread.start()
            try:
                for _ in range(10):
                    for task in serve_tasks:
                        futures.append((task, service.submit(
                            task.user, task.query_items, task.support_items)))
            finally:
                thread.join()
            for task, future in futures:
                scores = future.result(60)
                assert scores.shape == (len(task.query_items),)
                assert np.isfinite(scores).all()
        unique_pairs = len(set(update_pairs))
        assert sum(applied_total) == unique_pairs
        assert service.graph_generation == unique_pairs
