"""PredictionService: bit-identity with the offline predictor, shutdown
safety, backpressure, validation, and graph updates."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.core import HIRE, HIREConfig, HIREPredictor
from repro.obs import default_serve_rules
from repro.serve import (
    ModelRegistry,
    PredictionService,
    QueueFullError,
    RequestError,
    ServiceClosedError,
    ServiceConfig,
    replay_workload,
    synthesize_power_law_workload,
    synthesize_workload,
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

    def test_in_place_weight_load_reaches_the_next_prediction(
            self, ml_dataset, ml_split, serve_tasks):
        """Weights loaded into a served bare model in place score the next
        request exactly as a service started on the loaded weights."""
        model = HIRE(ml_dataset, HIREConfig(num_blocks=2, num_heads=2,
                                            attr_dim=8))
        task = serve_tasks[0]
        args = (task.user, task.query_items, task.support_items)
        with make_service(model, ml_split, serve_tasks) as service:
            before = service.predict(*args)
            model.load_state_dict({name: param.data * 1.5
                                   for name, param in model.named_parameters()})
            after = service.predict(*args)
        with make_service(model, ml_split, serve_tasks) as fresh:
            expected = fresh.predict(*args)
        assert before.tobytes() != after.tobytes()
        assert after.tobytes() == expected.tobytes()

    def test_coalesced_requests_get_independent_arrays(
            self, serve_model, ml_split, serve_tasks, parked_worker):
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=4) as service:
            with parked_worker(service):
                futures = [service.submit(task.user, task.query_items,
                                          task.support_items)
                           for _ in range(3)]
            results = [f.result(60) for f in futures]
        results[0][:] = -1.0
        assert np.array_equal(results[1], results[2])
        assert not np.array_equal(results[0], results[1])


class TestFailureIsolation:
    def test_one_failing_request_leaves_its_batch_mates_served(
            self, serve_model, ml_split, serve_tasks, monkeypatch,
            parked_worker):
        """A request that raises fails alone: the requests coalesced with
        it are re-run and resolve with the scores of a clean run."""
        config = dict(num_workers=1, max_batch_size=len(serve_tasks))
        with make_service(serve_model, ml_split, serve_tasks,
                          **config) as service:
            with parked_worker(service):
                futures = [service.submit(t.user, t.query_items,
                                          t.support_items)
                           for t in serve_tasks]
            clean = [f.result(60) for f in futures]

        culprit = serve_tasks[2].user
        assert [t.user for t in serve_tasks].count(culprit) == 1
        with make_service(serve_model, ml_split, serve_tasks,
                          **config) as service:
            original_chunks = service._chunks_for
            original_batch = service._process_batch
            batch_sizes = []

            def flaky(request, graph_state):
                if request.user == culprit:
                    raise RuntimeError("injected assembly failure")
                return original_chunks(request, graph_state)

            def recorded(batch):
                batch_sizes.append(len(batch))
                original_batch(batch)

            monkeypatch.setattr(service, "_chunks_for", flaky)
            monkeypatch.setattr(service, "_process_batch", recorded)
            with parked_worker(service):
                futures = [service.submit(t.user, t.query_items,
                                          t.support_items)
                           for t in serve_tasks]
            for index, (future, expected) in enumerate(zip(futures, clean)):
                if serve_tasks[index].user == culprit:
                    with pytest.raises(RuntimeError, match="injected"):
                        future.result(60)
                else:
                    assert future.result(60).tobytes() == expected.tobytes()
            snapshot = service.metrics.snapshot()
        assert batch_sizes == [len(serve_tasks)]
        assert snapshot["serve.failed_total"]["value"] == 1
        assert snapshot["serve.completed_total"]["value"] == (
            len(serve_tasks) - 1)


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

    def test_queue_size_counts_requests_of_every_bucket(
            self, serve_model, ml_split, serve_tasks, monkeypatch):
        """Requests a batch of another bucket leaves behind still hold
        their queue slots: at most ``queue_size`` ever wait."""
        service = make_service(serve_model, ml_split, serve_tasks,
                               num_workers=1, queue_size=4, max_batch_size=4)
        entered, gate = threading.Event(), threading.Event()
        original = service._process_batch

        def gated(batch):
            entered.set()
            gate.wait(30)
            original(batch)

        monkeypatch.setattr(service, "_process_batch", gated)
        budgets = (8, 32, 32, 32, 32, 32)
        tasks = serve_tasks[:len(budgets)]

        def submit(task, budget):
            return service.submit_request(task.user, task.query_items,
                                          task.support_items,
                                          context_users=budget,
                                          context_items=budget)

        # Admit four at once, so the worker's first batch takes the lone
        # small-budget request and leaves the three large ones queued.
        with service._batcher._ready:
            requests = [submit(task, budget)
                        for task, budget in zip(tasks[:4], budgets)]
        assert (service._request_bucket(requests[0])
                != service._request_bucket(requests[1]))
        assert entered.wait(30)
        assert service._batcher.depth == 3
        requests.append(submit(tasks[4], budgets[4]))
        with pytest.raises(QueueFullError):
            submit(tasks[5], budgets[5])
        assert service._batcher.depth == 4
        gate.set()
        for request in requests:
            assert isinstance(request.future.result(60), np.ndarray)
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

    @pytest.mark.parametrize("budgets", [
        {"context_users": 0}, {"context_users": 1},
        {"context_items": 0}, {"context_items": 1},
    ])
    def test_config_rejects_budgets_below_two(self, budgets):
        """The rule overrides and ladder rungs follow holds for the
        service-wide budgets too, at construction."""
        with pytest.raises(ValueError, match=">= 2"):
            ServiceConfig(**budgets)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_config_rejects_reveal_fraction_outside_unit_interval(
            self, fraction):
        """A fraction outside [0, 1) would fail every request; it fails
        the config instead."""
        with pytest.raises(ValueError, match="reveal_fraction"):
            ServiceConfig(reveal_fraction=fraction)


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
            self, serve_model, ml_split, serve_tasks, parked_worker):
        """Three different context budgets land in one (24, 32) bucket, run
        as one padded stacked forward, and every real row still matches the
        offline predictor with that budget — bit for bit."""
        refs = self.reference_scores(serve_model, ml_split, serve_tasks)
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=8, num_workers=1) as service:
            with parked_worker(service):
                futures = [
                    service.submit(task.user, task.query_items,
                                   task.support_items,
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
        """``pack_bucket=1`` keeps every shape exact: nothing is padded."""
        refs = self.reference_scores(serve_model, ml_split, serve_tasks)
        with make_service(serve_model, ml_split, serve_tasks,
                          pack_bucket=1) as service:
            got = [
                service.submit(task.user, task.query_items,
                               task.support_items,
                               context_users=n, context_items=m).result(60)
                for task, (n, m) in zip(serve_tasks, self.BUDGETS)]
            snapshot = service.metrics.snapshot()
        assert "serve.packed_contexts_total" not in snapshot
        for expected, scores in zip(refs, got):
            assert np.array_equal(expected, scores)

    def test_mixed_budget_replay_reuses_plans(self, serve_model, ml_split,
                                              serve_tasks):
        """Bucketed plan keys keep the per-thread plan LRU stable under
        mixed-budget traffic: once warm, a replay builds no new plan."""
        workload = synthesize_workload(
            serve_tasks, 24, seed=1,
            context_budgets=[(12, 12), (10, 11), (9, 12), (12, 10)])
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=1, num_workers=1,
                          queue_size=len(workload)) as service:
            replay_workload(service, workload)
            misses = nn.inference.cache_stats()["misses"]
            replay_workload(service, workload)
            assert nn.inference.cache_stats()["misses"] == misses

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
            self, serve_model, ml_split, serve_tasks, budgets, packed,
            parked_worker):
        serve_model.eval()
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=8, num_workers=1) as service:
            with parked_worker(service):
                futures = [
                    service.submit(task.user, task.query_items,
                                   task.support_items,
                                   context_users=n, context_items=m)
                    for task, (n, m) in zip(serve_tasks, budgets)]
            got = [f.result(60) for f in futures]
            expected = [self.tensor_reference(serve_model, service, task, n, m)
                        for task, (n, m) in zip(serve_tasks, budgets)]
            snapshot = service.metrics.snapshot()
        assert ("serve.packed_contexts_total" in snapshot) is packed
        for scores, reference in zip(got, expected):
            assert scores.tobytes() == reference.tobytes()


class TestAdaptiveBudgets:
    LADDER = ((0, 12, 12), (2, 8, 8), (4, 4, 4))

    @pytest.mark.parametrize("ladder, match", [
        (((1, 12, 12),), "threshold 0"),
        (((0, 12, 12), (2, 8, 8), (2, 6, 6)), "strictly increasing"),
        (((0, 8, 8), (2, 12, 12)), "non-increasing"),
        (((0, 8, 8), (2, 8, 1)), ">= 2"),
    ])
    def test_ladder_validation(self, ladder, match):
        with pytest.raises(ValueError, match=match):
            ServiceConfig(budget_ladder=ladder)

    def test_ladder_rungs_are_normalised_to_int_triples(self):
        config = ServiceConfig(budget_ladder=[[0, 12.0, 12], (2.0, 8, 8)])
        assert config.budget_ladder == ((0, 12, 12), (2, 8, 8))
        assert all(isinstance(value, int)
                   for rung in config.budget_ladder for value in rung)
        assert ServiceConfig().budget_ladder == ()

    def test_no_ladder_keeps_fixed_budgets_under_a_deep_queue(
            self, serve_model, ml_split, serve_tasks, sequential_scores,
            monkeypatch):
        """The default empty ladder is off: however deep the queue, every
        request keeps the service budgets and the sequential scores."""
        service = make_service(serve_model, ml_split, serve_tasks,
                               num_workers=1, max_batch_size=1,
                               queue_size=16)
        gate = threading.Event()
        original = service._process_batch

        def gated(batch):
            gate.wait(30)
            original(batch)

        monkeypatch.setattr(service, "_process_batch", gated)
        requests = [service.submit_request(t.user, t.query_items,
                                           t.support_items)
                    for t in serve_tasks]
        depth = service._batcher.depth
        gate.set()
        assert depth >= self.LADDER[-1][0]
        assert all((r.context_users, r.context_items) == (None, None)
                   for r in requests)
        scores = [r.future.result(60) for r in requests]
        snapshot = service.metrics.snapshot()
        service.close()
        assert "serve.assemble.degraded_total" not in snapshot
        for expected, got in zip(sequential_scores, scores):
            assert np.array_equal(expected, got)

    def test_rung_selection_depth_mapping(self, serve_model, ml_split,
                                          serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks,
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
                               queue_size=16, budget_ladder=self.LADDER)
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
                               queue_size=16, budget_ladder=self.LADDER)
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


class CellClock:
    """A fake service clock that only the forward pass moves: each engine
    call costs ``SECONDS_PER_CELL`` per context cell it runs."""

    SECONDS_PER_CELL = 5e-5

    def __init__(self, patch):
        self.now = 1000.0
        many = nn.inference.forward_inference_many
        packed = nn.inference.forward_inference_packed

        def timed_many(model, contexts, *, rows):
            self.now += self.SECONDS_PER_CELL * sum(c.n * c.m
                                                    for c in contexts)
            return many(model, contexts, rows=rows)

        def timed_packed(model, contexts, n, m, *, rows):
            self.now += self.SECONDS_PER_CELL * n * m * len(contexts)
            return packed(model, contexts, n, m, rows=rows)

        patch.setattr(nn.inference, "forward_inference_many", timed_many)
        patch.setattr(nn.inference, "forward_inference_packed", timed_packed)

    def __call__(self):
        return self.now


class TestLadderUnderOverload:
    """The budget ladder buys tail latency under overload: a one-worker
    service flooded with a power-law workload breaches its p99 SLO with
    fixed budgets and holds it with the ladder on.  Time is a fake clock
    that advances with the cells each forward runs, so the verdict does
    not depend on the machine."""

    LADDER = ((0, 32, 32), (2, 24, 24), (8, 16, 16))
    NUM_REQUESTS = 48
    SLO_P99_SECONDS = 1.5

    def flood(self, serve_model, ml_split, serve_tasks, parked_worker,
              **ladder):
        """Queue the whole workload behind the parked worker, then drain
        it; returns ``(p99 seconds, health state, degraded requests)``."""
        config = ServiceConfig(
            max_batch_size=4, num_workers=1,
            queue_size=self.NUM_REQUESTS,
            window_seconds=600.0, short_window_seconds=60.0,
            slo_rules=default_serve_rules(
                max_p99_seconds=self.SLO_P99_SECONDS),
            **ladder)
        workload = synthesize_power_law_workload(
            serve_tasks, self.NUM_REQUESTS, seed=4)
        with pytest.MonkeyPatch.context() as patch:
            service = PredictionService.from_split(
                serve_model, ml_split, serve_tasks, config=config,
                clock=CellClock(patch))
            with service:
                with parked_worker(service):
                    futures = [service.submit(r.user, r.item_ids,
                                              r.support_items)
                               for r in workload]
                for future in futures:
                    future.result(60)
                snapshot = service.metrics.snapshot()
                health = service.health()["state"]
        degraded = snapshot.get("serve.assemble.degraded_total",
                                {"value": 0})["value"]
        return snapshot["serve.latency_seconds"]["p99"], health, degraded

    def test_ladder_holds_the_p99_slo_that_fixed_budgets_breach(
            self, serve_model, ml_split, serve_tasks, parked_worker):
        fixed_p99, fixed_health, fixed_degraded = self.flood(
            serve_model, ml_split, serve_tasks, parked_worker)
        adaptive_p99, adaptive_health, degraded = self.flood(
            serve_model, ml_split, serve_tasks, parked_worker,
            budget_ladder=self.LADDER)
        assert fixed_p99 > self.SLO_P99_SECONDS > adaptive_p99
        assert (fixed_health, adaptive_health) == ("breach", "ok")
        assert fixed_degraded == 0
        assert degraded > 0
