"""OnlineController: round flow, promotion, rejection, rollback, pruning,
background loop, staleness health."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from repro.data import make_cold_start_split, movielens_like
from repro.eval.tasks import EvalTask, build_eval_tasks
from repro.online import (
    FineTuneConfig,
    GateConfig,
    GateDecision,
    IncrementalTrainer,
    OnlineConfig,
    OnlineController,
    ProbeResult,
    PromotionGate,
)
from repro.serve import ModelRegistry, PredictionService


def probe(rmse):
    return ProbeResult(rmse=rmse, mae=rmse, num_tasks=1, num_ratings=1)


class FakeGate:
    """Scripted gate: pops one RMSE per evaluate() call, in call order.

    Lets controller tests pin accept/reject/rollback outcomes without
    paying for real probe evaluations.
    """

    def __init__(self, scores, rollback_margin=0.05):
        self.scores = list(scores)
        self.rollback_margin = rollback_margin
        self.live = []

    def evaluate(self, model, tasks=None):
        return probe(self.scores.pop(0))

    def decide(self, candidate, active):
        accepted = candidate.rmse <= active.rmse
        return GateDecision(accepted=accepted, candidate=candidate,
                            active=active, margin=0.0, reason="scripted")

    def live_tasks(self, deltas):
        return self.live

    def regressed(self, promoted, previous):
        return promoted.rmse > previous.rmse * (1.0 + self.rollback_margin)


def make_controller(ml_dataset, trainer, online_model, gate, **config):
    registry = ModelRegistry(ml_dataset)
    registry.add("base", online_model)
    defaults = dict(min_new_ratings=2, min_rollback_ratings=100)
    defaults.update(config)
    controller = OnlineController(registry, trainer, gate,
                                  config=OnlineConfig(**defaults))
    return registry, controller


class TestRoundFlow:
    def test_skips_below_threshold(self, ml_dataset, trainer, online_model,
                                   warm_deltas):
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, FakeGate([]),
            min_new_ratings=20)
        controller.ingest(warm_deltas[:3])
        summary = controller.run_round()
        assert summary["status"] == "skipped"
        assert registry.active_name == "base"
        snapshot = controller.metrics.snapshot()
        assert snapshot["online.skipped_total"]["value"] == 1

    def test_force_overrides_threshold(self, ml_dataset, trainer,
                                       online_model, warm_deltas):
        _, controller = make_controller(
            ml_dataset, trainer, online_model, FakeGate([1.0, 0.9]),
            min_new_ratings=50)
        controller.ingest(warm_deltas[:3])
        assert controller.run_round(force=True)["status"] == "promoted"

    def test_promotion_swaps_the_registry(self, ml_dataset, trainer,
                                          online_model, warm_deltas):
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, FakeGate([1.0, 0.9]))
        controller.ingest(warm_deltas)
        summary = controller.run_round()
        assert summary["status"] == "promoted"
        assert summary["version"] == "online-r0"
        assert registry.active_name == "online-r0"
        assert registry.version("online-r0").metadata["log_offset"] == len(
            warm_deltas)
        stats = controller.stats()
        assert stats["trained_offset"] == len(warm_deltas)
        assert stats["pending"] == 0
        assert stats["rollback_target"] == "base"
        snapshot = controller.metrics.snapshot()
        assert snapshot["online.promotions_total"]["value"] == 1
        assert snapshot["online.swap_seconds"]["count"] == 1

    def test_rejection_keeps_the_active_model(self, ml_dataset, trainer,
                                              online_model, warm_deltas):
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, FakeGate([1.0, 1.5]))
        controller.ingest(warm_deltas)
        summary = controller.run_round()
        assert summary["status"] == "rejected"
        assert registry.active_name == "base"
        # The deltas are still accounted for: a rejected round is
        # deterministic, so retrying it would only spin.
        assert controller.stats()["trained_offset"] == len(warm_deltas)
        snapshot = controller.metrics.snapshot()
        assert snapshot["online.rejections_total"]["value"] == 1

    def test_promoted_round_is_reproducible(self, ml_dataset, trainer,
                                            online_model, warm_deltas):
        """The summary's (round_seed, log_offset) fully determine the
        candidate: re-running the round offline yields the same model."""
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, FakeGate([1.0, 0.9]))
        controller.ingest(warm_deltas)
        summary = controller.run_round()
        rerun = trainer.fine_tune(online_model,
                                  controller.log.slice(0, summary["log_offset"]),
                                  summary["log_offset"])
        assert rerun.round_seed == summary["round_seed"]
        promoted = registry.get(summary["version"])
        for name, value in promoted.state_dict().items():
            assert np.array_equal(value, rerun.model.state_dict()[name])


class TestShiftRecovery:
    def test_loop_recovers_probe_rmse_after_a_shift(self):
        """Every warm rating mirrored across the scale midpoint streams
        through a real gate in two rounds: the loop promotes, and the best
        promoted model scores the shifted probe better than the model at
        the shift did — and better than a control loop that streams the
        *unshifted* ratings through the same configuration, so the gain is
        adaptation to the shift, not just more training."""
        dataset = movielens_like(num_users=50, num_items=40, seed=0,
                                 ratings_per_user=12.0)
        split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
        model = HIRE(dataset, HIREConfig(num_blocks=1, num_heads=2,
                                         attr_dim=4, seed=0))
        HIRETrainer(model, split, config=TrainerConfig(
            steps=4, batch_size=4, seed=0)).fit()

        train = split.train_ratings()
        low, high = float(train[:, 2].min()), float(train[:, 2].max())

        def mirror(triples):
            mirrored = triples.copy()
            mirrored[:, 2] = low + high - mirrored[:, 2]
            return mirrored

        probe = [EvalTask(user=task.user, support=mirror(task.support),
                          query=mirror(task.query))
                 for task in build_eval_tasks(split, "user", min_query=2,
                                              seed=1, max_tasks=4)]
        gate = PromotionGate(split, probe, GateConfig(
            context_users=16, context_items=16, accept_margin=0.02))

        def best_promoted_rmse(stream):
            """Stream the ratings in two rounds from the shared base model;
            the promotion count and the best promoted probe RMSE (inf if
            nothing was promoted)."""
            trainer = IncrementalTrainer(split, config=FineTuneConfig(
                steps=3, batch_size=4, fresh_boost=4,
                context_users=16, context_items=16))
            registry = ModelRegistry(dataset)
            registry.add("base", model)
            controller = OnlineController(
                registry, trainer, gate,
                config=OnlineConfig(min_new_ratings=1, retain_versions=2))
            promoted_rmse = [float("inf")]
            for chunk in np.array_split(stream, 2):
                controller.ingest(chunk)
                if controller.run_round()["status"] == "promoted":
                    promoted_rmse.append(
                        controller.stats()["active_probe_rmse"])
            snapshot = controller.metrics.snapshot()
            return (snapshot["online.promotions_total"]["value"],
                    min(promoted_rmse))

        rmse_at_shift = gate.evaluate(model).rmse
        promotions, recovered = best_promoted_rmse(mirror(train))
        _, control = best_promoted_rmse(train)
        assert promotions >= 1
        assert recovered < rmse_at_shift
        assert recovered < control, (recovered, control)


class TestRollback:
    def test_live_window_regression_reverts_the_swap(
            self, ml_dataset, trainer, online_model, warm_deltas):
        gate = FakeGate([1.0, 0.9])
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, gate,
            min_rollback_ratings=4)
        controller.ingest(warm_deltas)
        assert controller.run_round()["status"] == "promoted"

        # Post-promotion live window: the promoted model scores 2.0, the
        # predecessor 1.0 — a regression beyond the 5% margin.
        gate.scores = [2.0, 1.0]
        gate.live = [object()]
        controller.ingest(warm_deltas[:4])
        summary = controller.run_round()
        assert summary["status"] == "rolled_back"
        assert registry.active_name == "base"
        assert controller.stats()["rollback_target"] is None
        snapshot = controller.metrics.snapshot()
        assert snapshot["online.rollbacks_total"]["value"] == 1

    def test_healthy_promotion_is_not_reverted(self, ml_dataset, trainer,
                                               online_model, warm_deltas):
        gate = FakeGate([1.0, 0.9])
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, gate,
            min_rollback_ratings=4, min_new_ratings=50)
        controller.ingest(warm_deltas)
        controller.run_round(force=True)

        gate.scores = [1.0, 1.0]  # promoted no worse than predecessor
        gate.live = [object()]
        controller.ingest(warm_deltas[:4])
        summary = controller.run_round()
        assert summary["status"] == "skipped"
        assert registry.active_name == "online-r0"

    def test_rollback_disabled_never_reverts(self, ml_dataset, trainer,
                                             online_model, warm_deltas):
        gate = FakeGate([1.0, 0.9])
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, gate,
            min_rollback_ratings=1, min_new_ratings=50,
            rollback_enabled=False)
        controller.ingest(warm_deltas)
        controller.run_round(force=True)
        gate.live = [object()]
        controller.ingest(warm_deltas[:4])
        assert controller.run_round()["status"] == "skipped"
        assert registry.active_name == "online-r0"


class TestPruning:
    def test_old_versions_pruned_but_rollback_target_kept(
            self, ml_dataset, trainer, online_model, warm_deltas):
        registry, controller = make_controller(
            ml_dataset, trainer, online_model,
            FakeGate([1.0, 0.9, 0.85, 0.8]), retain_versions=1)
        for _ in range(3):
            controller.ingest(warm_deltas)
            assert controller.run_round()["status"] == "promoted"
        assert registry.active_name == "online-r2"
        assert "online-r0" not in registry
        # The immediate predecessor stays registered: it is the rollback
        # target, pruning must never strand a revert.
        assert "online-r1" in registry
        assert "base" in registry


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def count_polls(controller) -> list[int]:
    """Count the background loop's polls; call before ``start()``."""
    polls = [0]
    loop = controller._loop

    def counted(stop_event):
        result = loop(stop_event)
        polls[0] += 1
        return result

    controller._loop = counted
    return polls


class TestBackgroundLoop:
    def test_background_round_promotes(self, ml_dataset, trainer,
                                       online_model, warm_deltas):
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, FakeGate([1.0, 0.9]),
            poll_interval_seconds=0.01)
        with controller:
            controller.start()
            controller.ingest(warm_deltas)
            deadline = time.monotonic() + 30.0
            while (registry.active_name == "base"
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        assert registry.active_name == "online-r0"
        assert controller.health()["closed"]

    def test_failed_round_is_recorded_and_the_loop_survives(
            self, ml_dataset, trainer, online_model, warm_deltas):
        """A round whose gate raises used to end the controller thread
        while health() kept reading ok."""
        class RaisingGate(FakeGate):
            def evaluate(self, model, tasks=None):
                raise RuntimeError("probe failed")

        registry, controller = make_controller(
            ml_dataset, trainer, online_model, RaisingGate([]),
            poll_interval_seconds=0.01)
        errors = controller.metrics.counter("online.round_errors_total")
        with controller:
            assert controller.health()["last_error"] is None
            controller.start()
            controller.ingest(warm_deltas)
            wait_until(lambda: errors.value >= 1)
            # A second failure, on new deltas, proves the loop outlived
            # the first.
            controller.ingest(warm_deltas)
            wait_until(lambda: errors.value >= 2)
            health = controller.health()
        assert errors.value == 2
        assert health["last_error"] == "RuntimeError: probe failed"
        assert health["background_running"]
        assert health["state"] == "ok"
        assert registry.active_name == "base"

    def test_failed_round_waits_for_new_deltas(self, ml_dataset,
                                               online_model, warm_deltas):
        """A failing round used to re-run its whole fine-tune on every
        poll of an unchanged log."""
        class FailingTrainer:
            calls = 0

            def fine_tune(self, *args, **kwargs):
                self.calls += 1
                raise RuntimeError("fine-tune failed")

        failing = FailingTrainer()
        _, controller = make_controller(ml_dataset, failing, online_model,
                                        FakeGate([]),
                                        poll_interval_seconds=0.01)
        polls = count_polls(controller)
        with controller:
            controller.ingest(warm_deltas)
            controller.start()
            wait_until(lambda: polls[0] >= 10)
            assert failing.calls == 1
            controller.ingest(warm_deltas[:1])
            wait_until(lambda: failing.calls >= 2)
            settled = polls[0]
            wait_until(lambda: polls[0] >= settled + 10)
        assert failing.calls == 2

    def test_kept_promotion_is_not_reprobed_on_an_unchanged_log(
            self, ml_dataset, trainer, online_model, warm_deltas):
        """After a promotion every poll used to re-probe both models on
        the same live window."""
        class CountingGate(FakeGate):
            calls = 0

            def evaluate(self, model, tasks=None):
                self.calls += 1
                return probe(1.0)

        gate = CountingGate([])
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, gate, min_new_ratings=50,
            min_rollback_ratings=2, poll_interval_seconds=0.01)
        controller.ingest(warm_deltas)
        assert controller.run_round(force=True)["status"] == "promoted"
        assert gate.calls == 2
        gate.live = [object()]
        controller.ingest(warm_deltas[:3])
        polls = count_polls(controller)
        with controller:
            controller.start()
            wait_until(lambda: polls[0] >= 10)
        # One rollback check: the promoted model and its predecessor.
        assert gate.calls == 4
        assert registry.active_name == "online-r0"

    def test_dead_loop_thread_reads_breach(self, ml_dataset, trainer,
                                           online_model):
        _, controller = make_controller(ml_dataset, trainer, online_model,
                                        FakeGate([]),
                                        poll_interval_seconds=0.01)
        assert controller.health()["state"] == "ok"  # never started
        controller.start()
        assert controller.health()["state"] == "ok"
        controller._pool.close()  # the thread ends without close()
        health = controller.health()
        assert not health["background_running"]
        assert health["state"] == "breach"
        controller.close()
        assert controller.health()["state"] == "ok"

    def test_close_is_idempotent_and_start_after_close_raises(
            self, ml_dataset, trainer, online_model):
        _, controller = make_controller(ml_dataset, trainer, online_model,
                                        FakeGate([]))
        controller.start()
        controller.close()
        controller.close()
        with pytest.raises(RuntimeError, match="closed"):
            controller.start()


def started_threads(before: set) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t not in before]


class TestSchedulingPriority:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="per-thread priority is Linux-only")
    def test_controller_thread_alone_runs_at_lowest_priority(
            self, ml_dataset, ml_split, trainer, online_model, probe_tasks):
        registry, controller = make_controller(ml_dataset, trainer,
                                               online_model, FakeGate([]))
        own = os.getpriority(os.PRIO_PROCESS, 0)
        before = set(threading.enumerate())
        with PredictionService.from_split(registry, ml_split,
                                          probe_tasks) as service:
            workers = started_threads(before)
            with controller:
                controller.start()
                background = started_threads(before | set(workers))
                assert [t.name for t in background] == [
                    "online-controller-0"]
                assert os.getpriority(os.PRIO_PROCESS,
                                      background[0].native_id) == 19
                assert controller.health()["background_priority"] == 19
                assert workers
                for worker in workers:
                    assert os.getpriority(os.PRIO_PROCESS,
                                          worker.native_id) == own
                assert service.predict(probe_tasks[0].user,
                                       probe_tasks[0].query_items,
                                       probe_tasks[0].support_items).size
        assert os.getpriority(os.PRIO_PROCESS, 0) == own

    def test_refused_priority_still_runs_rounds(
            self, ml_dataset, trainer, online_model, warm_deltas,
            monkeypatch):
        def refuse(*args):
            raise PermissionError("setpriority refused")

        monkeypatch.setattr(os, "setpriority", refuse, raising=False)
        registry, controller = make_controller(
            ml_dataset, trainer, online_model, FakeGate([1.0, 0.9]),
            poll_interval_seconds=0.01)
        with controller:
            controller.start()
            assert controller.health()["background_priority"] is None
            controller.ingest(warm_deltas)
            deadline = time.monotonic() + 30.0
            while (registry.active_name == "base"
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            health = controller.health()
        assert registry.active_name == "online-r0"
        assert health["background_running"]
        assert health["background_priority"] is None


class TestHealth:
    def test_staleness_breaches_after_budget(self, ml_dataset, trainer,
                                             online_model, warm_deltas):
        now = [0.0]
        registry = ModelRegistry(ml_dataset)
        registry.add("base", online_model)
        controller = OnlineController(
            registry, trainer, FakeGate([1.0, 0.9]),
            config=OnlineConfig(min_new_ratings=2,
                                min_rollback_ratings=100,
                                max_staleness_seconds=10.0),
            clock=lambda: now[0])
        assert controller.health()["state"] == "ok"
        now[0] = 20.0
        health = controller.health()
        assert health["state"] == "breach"
        assert health["staleness_seconds"] == 20.0
        # A promotion absorbs the stream and resets the staleness clock.
        controller.ingest(warm_deltas)
        assert controller.run_round()["status"] == "promoted"
        assert controller.health()["state"] == "ok"
        snapshot = controller.metrics.snapshot()
        assert snapshot["online.staleness_seconds"]["value"] == 0.0


class TestConfigValidation:
    @pytest.mark.parametrize("interval", [float("inf"), 1e12, float("nan"),
                                          0.0, -1.0])
    def test_poll_interval_must_be_waitable(self, interval):
        """The controller thread waits on the interval: inf and 1e12 used
        to kill it at its first wait while health() still read ok, NaN
        made it spin, and zero or less is no wait at all."""
        with pytest.raises(ValueError, match="poll_interval_seconds"):
            OnlineConfig(poll_interval_seconds=interval)

    @pytest.mark.parametrize("field", ["window_seconds",
                                       "short_window_seconds"])
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), 0.0])
    def test_windows_must_be_finite_and_positive(self, field, seconds):
        with pytest.raises(ValueError, match="window_seconds"):
            OnlineConfig(**{field: seconds})
