"""PredictionService: bit-identity with the offline predictor, shutdown
safety, backpressure, validation, and graph updates."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.core import HIRE, HIREConfig, HIREPredictor
from repro.serve import (
    ModelRegistry,
    PredictionService,
    QueueFullError,
    RequestError,
    ServiceClosedError,
    ServiceConfig,
)


@pytest.fixture(scope="module")
def sequential_scores(serve_model, ml_split, serve_tasks):
    """Reference scores from the offline predictor in per-task-RNG mode."""
    predictor = HIREPredictor(serve_model, ml_split, serve_tasks, seed=0,
                              per_task_rng=True)
    return [predictor.predict_task(task) for task in serve_tasks]


def make_service(model, split, tasks, **overrides):
    config = ServiceConfig(**overrides)
    return PredictionService.from_split(model, split, tasks, config=config)


class TestBitIdentity:
    def test_batched_multiworker_cached_equals_sequential(
            self, serve_model, ml_split, serve_tasks, sequential_scores):
        """The acceptance property: batching, three workers, and the context
        cache change nothing about the scores — bit for bit."""
        with make_service(serve_model, ml_split, serve_tasks,
                          num_workers=3, max_batch_size=4) as service:
            futures = [service.submit(t.user, t.query_items, t.support_items)
                       for t in serve_tasks]
            first = [f.result(60) for f in futures]
            # Again: now served from the context cache.
            futures = [service.submit(t.user, t.query_items, t.support_items)
                       for t in serve_tasks]
            second = [f.result(60) for f in futures]
            assert service.stats()["cache"]["hits"] > 0
        for expected, a, b in zip(sequential_scores, first, second):
            assert np.array_equal(expected, a)
            assert np.array_equal(expected, b)

    def test_cache_off_equals_sequential(self, serve_model, ml_split,
                                         serve_tasks, sequential_scores):
        with make_service(serve_model, ml_split, serve_tasks,
                          cache_enabled=False) as service:
            got = [service.predict(t.user, t.query_items, t.support_items)
                   for t in serve_tasks]
        for expected, scores in zip(sequential_scores, got):
            assert np.array_equal(expected, scores)

    def test_multi_sample_averaging_matches_predictor(
            self, serve_model, ml_split, serve_tasks):
        predictor = HIREPredictor(serve_model, ml_split, serve_tasks, seed=0,
                                  per_task_rng=True, num_context_samples=2)
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks,
                          num_context_samples=2) as service:
            scores = service.predict(task.user, task.query_items,
                                     task.support_items)
        assert np.array_equal(predictor.predict_task(task), scores)

    def test_registry_backed_service(self, ml_dataset, serve_model, ml_split,
                                     serve_tasks, sequential_scores):
        registry = ModelRegistry(ml_dataset)
        registry.add("v1", serve_model)
        task = serve_tasks[0]
        with make_service(registry, ml_split, serve_tasks) as service:
            assert np.array_equal(
                sequential_scores[0],
                service.predict(task.user, task.query_items, task.support_items))

    def test_hot_swap_changes_scores(self, ml_dataset, serve_model, ml_split,
                                     serve_tasks, sequential_scores):
        other = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                            attr_dim=8, seed=5))
        other_predictor = HIREPredictor(other, ml_split, serve_tasks, seed=0,
                                        per_task_rng=True)
        registry = ModelRegistry(ml_dataset)
        registry.add("v1", serve_model)
        registry.add("v2", other)
        task = serve_tasks[0]
        with make_service(registry, ml_split, serve_tasks) as service:
            before = service.predict(task.user, task.query_items,
                                     task.support_items)
            registry.activate("v2")
            # Context cache carries over (model-independent), scores change.
            after = service.predict(task.user, task.query_items,
                                    task.support_items)
        assert np.array_equal(before, sequential_scores[0])
        assert np.array_equal(after, other_predictor.predict_task(task))

    def test_coalesced_requests_get_independent_arrays(
            self, serve_model, ml_split, serve_tasks):
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=4, max_wait_seconds=0.05) as service:
            futures = [service.submit(task.user, task.query_items,
                                      task.support_items) for _ in range(3)]
            results = [f.result(60) for f in futures]
        results[0][:] = -1.0
        assert np.array_equal(results[1], results[2])
        assert not np.array_equal(results[0], results[1])


class TestShutdown:
    def test_drain_resolves_every_future(self, serve_model, ml_split,
                                         serve_tasks):
        service = make_service(serve_model, ml_split, serve_tasks,
                               num_workers=2, queue_size=64)
        futures = []
        for _ in range(4):
            for task in serve_tasks:
                futures.append(service.submit(task.user, task.query_items,
                                              task.support_items))
        service.close(drain=True)
        results = [f.result(60) for f in futures]
        assert len(results) == len(futures)
        assert all(isinstance(r, np.ndarray) for r in results)
        snapshot = service.metrics.snapshot()
        completed = snapshot["serve.completed_total"]["value"]
        assert completed == len(futures)  # nothing lost, nothing doubled

    def test_no_drain_fails_queued_futures(self, serve_model, ml_split,
                                           serve_tasks, monkeypatch):
        service = make_service(serve_model, ml_split, serve_tasks,
                               num_workers=1, queue_size=32, max_batch_size=1)
        gate = threading.Event()
        original = service._process_batch

        def gated(batch):
            gate.wait(30)
            original(batch)

        monkeypatch.setattr(service, "_process_batch", gated)
        futures = [service.submit(t.user, t.query_items, t.support_items)
                   for t in serve_tasks]
        service._closed = True  # stop intake without waiting on the gate
        service._batcher.close()
        leftovers = service._batcher.drain()
        error = ServiceClosedError("service closed before execution")
        for request in leftovers:
            request.future.set_exception(error)
        gate.set()
        service._pool.join(30)
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result(60))
            except ServiceClosedError:
                outcomes.append("shed")
        assert len(outcomes) == len(futures)  # every future resolved once
        assert "shed" in outcomes

    def test_submit_after_close_raises(self, serve_model, ml_split, serve_tasks):
        service = make_service(serve_model, ml_split, serve_tasks)
        service.close()
        task = serve_tasks[0]
        with pytest.raises(ServiceClosedError):
            service.submit(task.user, task.query_items)

    def test_close_is_idempotent(self, serve_model, ml_split, serve_tasks):
        service = make_service(serve_model, ml_split, serve_tasks)
        service.close()
        service.close()
        assert service.closed


class TestBackpressure:
    def test_queue_full_sheds_load(self, serve_model, ml_split, serve_tasks,
                                   monkeypatch):
        service = make_service(serve_model, ml_split, serve_tasks,
                               num_workers=1, queue_size=2, max_batch_size=1)
        gate = threading.Event()
        original = service._process_batch

        def gated(batch):
            gate.wait(30)
            original(batch)

        monkeypatch.setattr(service, "_process_batch", gated)
        task = serve_tasks[0]
        accepted = []
        with pytest.raises(QueueFullError):
            for _ in range(20):
                accepted.append(service.submit(task.user, task.query_items,
                                               task.support_items))
        rejected = service.metrics.snapshot()["serve.rejected_total"]["value"]
        assert rejected >= 1
        gate.set()
        for future in accepted:  # shed requests never block accepted ones
            assert isinstance(future.result(60), np.ndarray)
        service.close()


class TestValidation:
    @pytest.fixture(scope="class")
    def service(self, serve_model, ml_split, serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            yield service

    def test_empty_items(self, service):
        with pytest.raises(RequestError, match="at least one item"):
            service.submit(0, [])

    def test_user_out_of_range(self, service):
        with pytest.raises(RequestError, match="user"):
            service.submit(10_000, [1, 2])

    def test_item_out_of_range(self, service):
        with pytest.raises(RequestError, match="item"):
            service.submit(0, [10_000])

    def test_already_rated_pair(self, service, ml_split):
        user = int(ml_split.train_ratings()[0, 0])
        item = int(ml_split.train_ratings()[0, 1])
        with pytest.raises(RequestError, match="already rated"):
            service.submit(user, [item])


class TestGraphUpdates:
    def test_update_bumps_generation_and_invalidates_cache(
            self, serve_model, ml_split, serve_tasks):
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks) as service:
            service.predict(task.user, task.query_items, task.support_items)
            assert len(service.cache) > 0
            target_item = int(task.query_items[0])
            applied = service.update_ratings(
                np.array([[task.user, target_item, 4.0]]))
            assert applied == 1
            assert service.graph_generation == 1
            assert len(service.cache) == 0
            # The new rating is visible: that pair can no longer be queried.
            with pytest.raises(RequestError, match="already rated"):
                service.submit(task.user, [target_item])
            # Other queries still work against the rebuilt graph.
            remaining = np.array([i for i in task.query_items
                                  if int(i) != target_item])
            scores = service.predict(task.user, remaining, task.support_items)
            assert scores.shape == remaining.shape

    def test_multi_chunk_request_resamples_after_update(
            self, serve_model, ml_split, serve_tasks):
        """A query longer than one chunk assembles several contexts.  A
        delta touching one chunk's entities evicts the request's cache
        entry, and re-serving samples every chunk afresh on the new
        snapshot: bit-identical to the offline predictor on that graph."""
        task = serve_tasks[0]
        budgets = dict(context_users=12, context_items=12)
        with make_service(serve_model, ml_split, serve_tasks,
                          **budgets) as service:
            before = service.predict(task.user, task.query_items,
                                     task.support_items)
            [[chunks]] = list(service.cache._entries.values())
            assert len(chunks) > 1
            # Re-rate a revealed warm pair inside the second chunk's
            # context: an existing pair, so the sweep is fine-grained, and
            # a revealed one, so the model sees the new value.
            context = chunks[1].context
            rows, cols = np.nonzero(context.revealed)
            pick = int(np.flatnonzero(context.users[rows] != task.user)[0])
            user = int(context.users[rows[pick]])
            item = int(context.items[cols[pick]])
            old = context.ratings[rows[pick], cols[pick]]
            applied = service.update_ratings(
                np.array([[user, item, 1.0 if old != 1.0 else 5.0]]))
            assert applied == 1
            assert len(service.cache) == 0
            cache_stats = service.stats()["cache"]
            assert cache_stats["invalidations"] == 0
            assert cache_stats["entries_evicted"] == 1

            after = service.predict(task.user, task.query_items,
                                    task.support_items)
            state = service.graph_store.state
        predictor = HIREPredictor(serve_model, ml_split, serve_tasks, seed=0,
                                  per_task_rng=True, **budgets)
        predictor.graph = state.graph
        predictor.candidate_users = state.candidate_users
        predictor.candidate_items = state.candidate_items
        assert np.array_equal(after, predictor.predict_task(task))
        assert not np.array_equal(after, before)


class TestObservability:
    def test_metrics_and_report(self, serve_model, ml_split, serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            task = serve_tasks[0]
            service.predict(task.user, task.query_items, task.support_items)
            service.predict(task.user, task.query_items, task.support_items)
            snapshot = service.metrics.snapshot()
            assert snapshot["serve.requests_total"]["value"] == 2
            assert snapshot["serve.completed_total"]["value"] == 2
            assert snapshot["serve.latency_seconds"]["count"] == 2
            assert snapshot["serve.latency_seconds"]["p99"] > 0
            report = service.report()
        assert "serve.latency_seconds" in report
        assert "hit rate" in report

    def test_stats_snapshot(self, serve_model, ml_split, serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            stats = service.stats()
        assert stats["queue_depth"] == 0
        assert stats["graph_generation"] == 0
        assert "cache" in stats


class TestPackedServing:
    BUDGETS = [(20, 26), (24, 30), (18, 28)]  # all bucket to (24, 32)

    def reference_scores(self, serve_model, ml_split, serve_tasks):
        refs = []
        for task, (n, m) in zip(serve_tasks, self.BUDGETS):
            predictor = HIREPredictor(serve_model, ml_split, serve_tasks,
                                      seed=0, per_task_rng=True,
                                      context_users=n, context_items=m)
            refs.append(predictor.predict_task(task))
        return refs

    def test_mixed_budgets_pack_and_stay_bitwise_identical(
            self, serve_model, ml_split, serve_tasks):
        """Three different context budgets land in one (24, 32) bucket, run
        as one padded stacked forward, and every real row still matches the
        offline predictor with that budget — bit for bit."""
        refs = self.reference_scores(serve_model, ml_split, serve_tasks)
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=8, num_workers=1,
                          max_wait_seconds=0.25) as service:
            futures = [
                service.submit(task.user, task.query_items, task.support_items,
                               context_users=n, context_items=m)
                for task, (n, m) in zip(serve_tasks, self.BUDGETS)]
            got = [f.result(60) for f in futures]
            snapshot = service.metrics.snapshot()
        assert snapshot["serve.packed_contexts_total"]["value"] > 0
        assert "serve.pack_pad_waste" in snapshot
        assert snapshot["serve.pack_bucket_occupancy"]["count"] > 0
        for expected, scores in zip(refs, got):
            assert np.array_equal(expected, scores)

    def test_pack_disabled_still_exact(self, serve_model, ml_split,
                                       serve_tasks):
        refs = self.reference_scores(serve_model, ml_split, serve_tasks)
        with make_service(serve_model, ml_split, serve_tasks,
                          pack_contexts=False) as service:
            got = [
                service.submit(task.user, task.query_items,
                               task.support_items,
                               context_users=n, context_items=m).result(60)
                for task, (n, m) in zip(serve_tasks, self.BUDGETS)]
            snapshot = service.metrics.snapshot()
        assert "serve.packed_contexts_total" not in snapshot
        for expected, scores in zip(refs, got):
            assert np.array_equal(expected, scores)

    def test_budget_override_validation(self, serve_model, ml_split,
                                        serve_tasks):
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks) as service:
            with pytest.raises(RequestError, match="context_users"):
                service.submit(task.user, task.query_items,
                               context_users=1)
            with pytest.raises(RequestError, match="context_items"):
                service.submit(task.user, task.query_items,
                               context_items=0)

    def test_bucket_dims_policy(self, serve_model, ml_split, serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks,
                          pack_bucket=8, pack_max_waste=1.0) as service:
            assert service._bucket_dims(20, 26) == (24, 32)
            assert service._bucket_dims(24, 32) == (24, 32)
            # Single-token axes never pad (decoder GEMM bitwise hazard).
            assert service._bucket_dims(1, 26) == (1, 26)
            assert service._bucket_dims(26, 1) == (26, 1)
            # Waste cap: padding 2x2 -> 8x8 would inflate 15x; stays exact.
            assert service._bucket_dims(2, 2) == (2, 2)


class TestRowPathServing:
    """The engine serves each chunk through its target-row tail; scores
    must equal the target rows of full one-context Tensor forwards."""

    def tensor_reference(self, model, service, task, n, m):
        from repro.core import assemble_user_chunks, task_chunk_rng

        state = service._store.state
        chunks = assemble_user_chunks(
            state.graph, service.sampler, task.user, task.query_items,
            task.support_items, context_users=n, context_items=m,
            reveal_fraction=service.config.reveal_fraction,
            candidate_users=state.candidate_users,
            candidate_items=state.candidate_items,
            rng_factory=lambda start: task_chunk_rng(
                service.config.seed, task.user, 0, start))
        scores = np.empty(len(task.query_items))
        with nn.no_grad():
            for chunk in chunks:
                out = model.forward(chunk.context).data
                scores[chunk.start:chunk.start + len(chunk)] = (
                    out[chunk.user_row, chunk.cols])
        return scores

    @pytest.mark.parametrize("budgets, packed", [
        ([(32, 32)] * 3, False),           # uniform: exact stacked rows
        (TestPackedServing.BUDGETS, True),  # mixed: packed rows
    ])
    def test_served_rows_equal_tensor_forward_rows(
            self, serve_model, ml_split, serve_tasks, budgets, packed):
        serve_model.eval()
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=8, num_workers=1,
                          max_wait_seconds=0.25) as service:
            futures = [
                service.submit(task.user, task.query_items, task.support_items,
                               context_users=n, context_items=m)
                for task, (n, m) in zip(serve_tasks, budgets)]
            got = [f.result(60) for f in futures]
            expected = [self.tensor_reference(serve_model, service, task, n, m)
                        for task, (n, m) in zip(serve_tasks, budgets)]
            snapshot = service.metrics.snapshot()
        assert ("serve.packed_contexts_total" in snapshot) is packed
        for scores, reference in zip(got, expected):
            assert scores.tobytes() == reference.tobytes()


class TestEmbedStoreServing:
    def test_store_warms_and_reports_stats(self, serve_model, ml_split,
                                           serve_tasks, sequential_scores):
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks,
                          cache_enabled=False) as service:
            first = service.predict(task.user, task.query_items,
                                    task.support_items)
            stats = service.stats()["embed_store"]
            assert stats["misses"] > 0
            second = service.predict(task.user, task.query_items,
                                     task.support_items)
            warmed = service.stats()["embed_store"]
            assert warmed["hits"] > stats["hits"]
        assert np.array_equal(first, sequential_scores[0])
        assert np.array_equal(second, sequential_scores[0])

    def test_update_ratings_invalidates_touched_rows_only(
            self, serve_model, ml_split, serve_tasks):
        task = serve_tasks[0]
        item = int(task.query_items[0])
        with make_service(serve_model, ml_split, serve_tasks) as service:
            service.predict(task.user, task.query_items, task.support_items)
            store = service._embed_store
            assert store is not None
            service.update_ratings(np.array([[task.user, item, 4.0]]))
            # The store survives an ordinary delta; only the touched
            # entities' rows are retired.
            assert service._embed_store is store
            assert not store._user_valid[task.user]
            assert not store._item_valid[item]

    def test_hot_swap_rebuilds_the_store(self, ml_dataset, serve_model,
                                         ml_split, serve_tasks,
                                         sequential_scores):
        other = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                            attr_dim=8, seed=5))
        other_predictor = HIREPredictor(other, ml_split, serve_tasks, seed=0,
                                        per_task_rng=True)
        registry = ModelRegistry(ml_dataset)
        registry.add("v1", serve_model)
        registry.add("v2", other)
        task = serve_tasks[0]
        with make_service(registry, ml_split, serve_tasks) as service:
            before = service.predict(task.user, task.query_items,
                                     task.support_items)
            stale = service._embed_store
            registry.activate("v2")  # generation bump invalidates the store
            after = service.predict(task.user, task.query_items,
                                    task.support_items)
            assert service._embed_store is not stale
        assert np.array_equal(before, sequential_scores[0])
        assert np.array_equal(after, other_predictor.predict_task(task))


class TestAdaptiveBudgets:
    LADDER = ((0, 12, 12), (2, 8, 8), (4, 4, 4))

    @pytest.mark.parametrize("ladder, match", [
        ((), "needs a budget_ladder"),
        (((1, 12, 12),), "threshold 0"),
        (((0, 12, 12), (2, 8, 8), (2, 6, 6)), "strictly increasing"),
        (((0, 8, 8), (2, 12, 12)), "non-increasing"),
        (((0, 8, 8), (2, 8, 1)), ">= 2"),
    ])
    def test_ladder_validation(self, ladder, match):
        with pytest.raises(ValueError, match=match):
            ServiceConfig(adaptive_budgets=True, budget_ladder=ladder)

    def test_ladder_without_adaptive_flag_is_inert(self, serve_model,
                                                   ml_split, serve_tasks,
                                                   sequential_scores):
        # A configured ladder only applies when adaptive_budgets is on.
        with make_service(serve_model, ml_split, serve_tasks,
                          budget_ladder=self.LADDER) as service:
            request = service.submit_request(
                serve_tasks[0].user, serve_tasks[0].query_items,
                serve_tasks[0].support_items)
            assert request.context_users is None
            assert np.array_equal(request.future.result(60),
                                  sequential_scores[0])

    def test_rung_selection_depth_mapping(self, serve_model, ml_split,
                                          serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks,
                          adaptive_budgets=True,
                          budget_ladder=self.LADDER) as service:
            assert service._ladder_budgets(0) == (0, (12, 12))
            assert service._ladder_budgets(1) == (0, (12, 12))
            assert service._ladder_budgets(2) == (1, (8, 8))
            assert service._ladder_budgets(3) == (1, (8, 8))
            assert service._ladder_budgets(4) == (2, (4, 4))
            assert service._ladder_budgets(100) == (2, (4, 4))

    def test_deep_queue_degrades_bit_identically(self, serve_model, ml_split,
                                                 serve_tasks, monkeypatch):
        """Requests admitted while the queue is deep get smaller budgets,
        carry them on the returned request, and their scores equal the
        sequential predictor run at exactly those (n, m)."""
        service = make_service(serve_model, ml_split, serve_tasks,
                               num_workers=1, max_batch_size=1,
                               queue_size=16, cache_enabled=False,
                               adaptive_budgets=True,
                               budget_ladder=self.LADDER)
        gate = threading.Event()
        original = service._process_batch

        def gated(batch):
            gate.wait(30)
            original(batch)

        monkeypatch.setattr(service, "_process_batch", gated)
        requests = [service.submit_request(t.user, t.query_items,
                                           t.support_items)
                    for t in serve_tasks]
        gate.set()
        budgets = [(r.context_users, r.context_items) for r in requests]
        # The ladder applied to every request, and the growing queue pushed
        # later admissions onto smaller rungs.
        assert all(n is not None and m is not None for n, m in budgets)
        assert len(set(budgets)) >= 2
        assert min(budgets) < (self.LADDER[0][1], self.LADDER[0][2])
        scores = [r.future.result(60) for r in requests]
        snapshot = service.metrics.snapshot()
        service.close()
        assert snapshot["serve.assemble.degraded_total"]["value"] >= 1
        assert "serve.assemble.budget_rung" in snapshot
        for task, (n, m), got in zip(serve_tasks, budgets, scores):
            reference = HIREPredictor(serve_model, ml_split, serve_tasks,
                                      seed=0, per_task_rng=True,
                                      context_users=n, context_items=m)
            assert np.array_equal(reference.predict_task(task), got)

    def test_explicit_override_bypasses_ladder(self, serve_model, ml_split,
                                               serve_tasks, monkeypatch):
        service = make_service(serve_model, ml_split, serve_tasks,
                               num_workers=1, max_batch_size=1,
                               queue_size=16, adaptive_budgets=True,
                               budget_ladder=self.LADDER)
        gate = threading.Event()
        original = service._process_batch

        def gated(batch):
            gate.wait(30)
            original(batch)

        monkeypatch.setattr(service, "_process_batch", gated)
        # Deepen the queue past every threshold, then ask for an explicit
        # quality point: the caller's budgets must survive untouched.
        fillers = [service.submit_request(t.user, t.query_items,
                                          t.support_items)
                   for t in serve_tasks[:5]]
        request = service.submit_request(
            serve_tasks[5].user, serve_tasks[5].query_items,
            serve_tasks[5].support_items, context_users=20, context_items=20)
        gate.set()
        assert (request.context_users, request.context_items) == (20, 20)
        for pending in fillers + [request]:
            pending.future.result(60)
        service.close()

