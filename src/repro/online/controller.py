"""The online loop: ingest → fine-tune → gate → hot swap → (maybe) roll back.

:class:`OnlineController` closes the loop the rest of :mod:`repro.online`
provides pieces for.  Fresh ratings enter through :meth:`ingest` (folded
into the serving graph immediately, teed into the :class:`RatingLog` for
the trainer); once enough deltas accumulate, a *round* clones the active
model, fine-tunes it on the log (:class:`IncrementalTrainer`), scores it on
the frozen cold-start probe (:class:`PromotionGate`), and — if the gate
accepts — registers and activates it in the :class:`ModelRegistry`.  The
registry's generation bump plus the inference engine's ``.data``-read
parameters make the swap zero-downtime: in-flight batches finish on the
model they resolved, later batches see the winner.

Rounds run either synchronously (:meth:`run_round`, the deterministic path
tests and benchmarks drive) or on a drain-aware background thread
(:meth:`start` / :meth:`close`, one :class:`repro.concurrency.WorkerPool`
worker polling the log).  The background loop runs a round only when the
log has grown since its previous one: on an unchanged log a failed round
would fail again and a rollback check would re-probe the same live window.
Both paths share one lock, so a manual round never interleaves with the
background one.  The background thread runs at the lowest CPU priority
(Linux), so serving gets the CPU first and rounds take what it leaves: a
round computes the same model, only later.

After a promotion the controller watches the *live window* — deltas that
arrived since the swap — and reverts to the predecessor when the promoted
model regresses beyond the gate's rollback margin.  Telemetry streams into
an :class:`repro.obs.MetricsRegistry` under the ``online.`` prefix, and
:meth:`health` evaluates the staleness SLO
(:func:`repro.obs.default_online_rules`).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..concurrency import WorkerPool, check_wait_seconds
from ..serve.registry import ModelRegistry
from .gate import GateDecision, ProbeResult, PromotionGate
from .log import RatingLog
from .trainer import IncrementalTrainer

__all__ = ["OnlineConfig", "OnlineController"]


@dataclass
class OnlineConfig:
    """Knobs of the online control loop."""

    # A round only fires once this many deltas sit beyond the trained
    # offset; smaller batches are left to accumulate.
    min_new_ratings: int = 8
    # Background-thread poll cadence (seconds between log checks).
    poll_interval_seconds: float = 0.25
    # How many controller-created versions to keep registered; older ones
    # are pruned after each promotion (the active and rollback targets are
    # never pruned).
    retain_versions: int = 2
    rollback_enabled: bool = True
    # Live-window rollback checks need at least this many held-out deltas
    # to be meaningful.
    min_rollback_ratings: int = 4
    version_prefix: str = "online"
    # Staleness SLO budget: seconds since the serving model last absorbed
    # the stream before health() degrades.
    max_staleness_seconds: float = 3600.0
    window_seconds: float = 600.0
    short_window_seconds: float = 60.0

    def __post_init__(self):
        if self.min_new_ratings < 1:
            raise ValueError("min_new_ratings must be >= 1")
        # The controller thread waits this long between log checks.
        check_wait_seconds("poll_interval_seconds", self.poll_interval_seconds)
        if self.retain_versions < 1:
            raise ValueError("retain_versions must be >= 1")
        # Chained, so NaN fails too; infinity has no slice count.
        if not 0 < self.short_window_seconds <= self.window_seconds < math.inf:
            raise ValueError("need 0 < short_window_seconds <= window_seconds"
                             " < inf")


class OnlineController:
    """Runs the incremental-learning loop against a live serving stack.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` the serving layer resolves its model
        from; promoted candidates are registered and activated here.
    trainer / gate:
        The round's two halves: fine-tuning and probe-based judgement.
    log:
        The delta log rounds consume.  Pass the same instance the serving
        layer tees into (``PredictionService(rating_log=...)``), or let the
        controller own a fresh one.
    service:
        Optional :class:`repro.serve.PredictionService`; when present,
        :meth:`ingest` routes deltas through ``service.update_ratings`` so
        the graph, the cache generation, and the log stay in lockstep.
    """

    def __init__(self, registry: ModelRegistry, trainer: IncrementalTrainer,
                 gate: PromotionGate, log: RatingLog | None = None,
                 service=None, config: OnlineConfig | None = None,
                 metrics: obs.MetricsRegistry | None = None,
                 clock=time.monotonic):
        self.registry = registry
        self.trainer = trainer
        self.gate = gate
        self.log = log if log is not None else RatingLog()
        self.service = service
        self.config = config or OnlineConfig()
        self.metrics = metrics if metrics is not None else (
            service.metrics if service is not None else obs.MetricsRegistry())
        self._clock = clock
        self._lock = threading.RLock()
        self._round_index = 0
        # Log offset the *active* model has absorbed; rounds train on
        # [0, tail) with [trained_offset, tail) boosted as fresh.
        self._trained_offset = 0
        # Rollback state: the predecessor of the last promotion and the
        # log offset the promotion happened at (its live window starts
        # there).  Cleared after a rollback so reverts never flip-flop.
        self._previous_name: str | None = None
        self._previous_probe: ProbeResult | None = None
        self._promoted_offset = 0
        self._active_probe: ProbeResult | None = None
        self._created: list[str] = []
        self._last_promotion_time = clock()
        self._num_slices = max(1, round(self.config.window_seconds
                                        / self.config.short_window_seconds))
        self._slo_rules = obs.default_online_rules(
            max_staleness_seconds=self.config.max_staleness_seconds)
        self._window_probe_rmse = self._windowed_histogram("window.probe_rmse")
        self._pool: WorkerPool | None = None
        self._closed = False
        self._last_error: str | None = None
        # Log size the background loop last ran a round at (-1: never).
        self._attempted_size = -1

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, ratings: np.ndarray) -> int:
        """Feed fresh rating triples into the loop; returns applied count.

        With a service attached, the deltas go through
        ``service.update_ratings`` — deduped, folded into the visible
        graph, and teed into the shared log in one step.  Without one they
        are appended to the log directly.
        """
        ratings = np.asarray(ratings, dtype=np.float64).reshape(-1, 3)
        if self.service is not None:
            applied = self.service.update_ratings(ratings)
        else:
            start, end = self.log.append(ratings)
            applied = end - start
        self._gauge("log_size").set(len(self.log))
        self._gauge("pending_ratings").set(self.pending())
        return applied

    def pending(self) -> int:
        """Deltas the active model has not trained on yet."""
        return len(self.log) - self._trained_offset

    # ------------------------------------------------------------------ #
    # The round
    # ------------------------------------------------------------------ #
    def run_round(self, force: bool = False) -> dict:
        """One synchronous loop iteration; returns a summary dict.

        Order inside the round: refresh staleness, check the live window
        for a post-promotion regression (roll back if confirmed), then —
        if at least ``min_new_ratings`` deltas are pending, or ``force``
        — fine-tune a candidate, probe it, and let the gate decide.
        """
        with self._lock:
            self._counter("rounds_total").inc()
            self._touch_staleness()
            summary: dict = {"round": self._round_index,
                             "pending": self.pending()}

            rolled_back = self._maybe_rollback()
            if rolled_back:
                summary["status"] = "rolled_back"
                return summary

            if self.pending() < self.config.min_new_ratings and not force:
                self._counter("skipped_total").inc()
                summary["status"] = "skipped"
                return summary

            with obs.span("online/round"):
                summary.update(self._train_and_judge())
            self._round_index += 1
            return summary

    def _train_and_judge(self) -> dict:
        cfg = self.config
        tail = len(self.log)
        deltas = self.log.slice(0, tail)
        fresh = self.log.slice(self._trained_offset, tail)
        active_name, active_model = self.registry.active()

        with obs.span("online/train"):
            result = self.trainer.fine_tune(active_model, deltas, tail,
                                            fresh=fresh)
        self._histogram("train_seconds").observe(result.seconds)

        with obs.span("online/probe"):
            if self._active_probe is None:
                self._active_probe = self.gate.evaluate(active_model)
            candidate_probe = self.gate.evaluate(result.model)
        decision = self.gate.decide(candidate_probe, self._active_probe)
        self._window_probe_rmse.observe(candidate_probe.rmse)

        summary = {
            "log_offset": tail,
            "round_seed": result.round_seed,
            "candidate_rmse": candidate_probe.rmse,
            "active_rmse": self._active_probe.rmse,
            "reason": decision.reason,
        }
        if decision.accepted:
            summary["status"] = "promoted"
            summary["version"] = self._promote(result.model, active_name,
                                               candidate_probe, tail)
        else:
            self._counter("rejections_total").inc()
            summary["status"] = "rejected"
        # Either way the deltas are accounted for: a rejected candidate is
        # deterministic, so retrying the identical round would only spin.
        self._trained_offset = tail
        self._gauge("pending_ratings").set(self.pending())
        return summary

    def _promote(self, model, active_name: str, probe: ProbeResult,
                 tail: int) -> str:
        name = f"{self.config.version_prefix}-r{self._round_index}"
        with obs.span("online/swap"):
            start = time.perf_counter()
            self.registry.add(name, model, activate=True,
                              metadata={"log_offset": tail,
                                        "probe_rmse": probe.rmse})
            swap_seconds = time.perf_counter() - start
        self._histogram("swap_seconds").observe(swap_seconds)
        self._counter("promotions_total").inc()
        self._previous_name = active_name
        self._previous_probe = self._active_probe
        self._active_probe = probe
        self._promoted_offset = tail
        self._last_promotion_time = self._clock()
        self._touch_staleness()
        self._created.append(name)
        self._prune_versions()
        return name

    def _prune_versions(self) -> None:
        keep = {self.registry.active_name, self._previous_name}
        while len(self._created) > self.config.retain_versions:
            victim = next((n for n in self._created if n not in keep), None)
            if victim is None:
                break
            self._created.remove(victim)
            self.registry.unregister(victim)

    # ------------------------------------------------------------------ #
    # Rollback
    # ------------------------------------------------------------------ #
    def _maybe_rollback(self) -> bool:
        cfg = self.config
        if not cfg.rollback_enabled or self._previous_name is None:
            return False
        window = self.log.since(self._promoted_offset)
        if len(window) < cfg.min_rollback_ratings:
            return False
        tasks = self.gate.live_tasks(window)
        if not tasks:
            return False
        active_name, active_model = self.registry.active()
        previous_model = self.registry.get(self._previous_name)
        with obs.span("online/probe"):
            promoted = self.gate.evaluate(active_model, tasks)
            previous = self.gate.evaluate(previous_model, tasks)
        if not self.gate.regressed(promoted, previous):
            return False
        with obs.span("online/swap"):
            self.registry.activate(self._previous_name)
        self._counter("rollbacks_total").inc()
        self._active_probe = self._previous_probe
        # One revert per promotion: clearing the state stops flip-flops.
        self._previous_name = None
        self._previous_probe = None
        self._last_promotion_time = self._clock()
        self._touch_staleness()
        return True

    # ------------------------------------------------------------------ #
    # Background loop
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Run rounds on a background thread until :meth:`close`.

        The thread lowers itself to the lowest CPU priority before its
        first round; :meth:`health` reports the value it read back.
        """
        if self._closed:
            raise RuntimeError("controller is closed")
        if self._pool is not None:
            return
        self._pool = WorkerPool(self._loop, num_workers=1,
                                name="online-controller", background=True)
        self._pool.start()

    def _loop(self, stop_event) -> bool:
        stop_event.wait(self.config.poll_interval_seconds)
        if stop_event.is_set():
            return False
        try:
            size = len(self.log)
            if size > self._attempted_size and (
                    self.pending() >= self.config.min_new_ratings
                    or self._previous_name is not None):
                self._attempted_size = size
                self.run_round()
            else:
                self._touch_staleness()
        except Exception as error:  # a failed round must not end the loop
            self._last_error = f"{type(error).__name__}: {error}"
            self._counter("round_errors_total").inc()
        return True

    def close(self, timeout: float = 30.0) -> None:
        """Stop the background thread; an in-flight round finishes first.

        Drain-aware: the worker observes the stop event only between
        rounds, so a promotion is never abandoned half-swapped.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.close(timeout)
            self._pool = None

    def __enter__(self) -> "OnlineController":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def staleness_seconds(self) -> float:
        """Seconds since the serving model last absorbed the stream."""
        return max(0.0, self._clock() - self._last_promotion_time)

    def _touch_staleness(self) -> None:
        self._gauge("staleness_seconds").set(self.staleness_seconds())

    def health(self) -> dict:
        """Staleness SLO state plus loop liveness.

        ``state`` is ``breach`` whenever the background loop was started,
        is not closed and has no live thread.  ``last_error`` is the last
        exception a background round raised (the loop survives it), or
        ``None``.  ``background_priority`` is the nice value the
        background thread read back after lowering itself, or ``None``
        when it is not running or its priority was left unchanged.
        """
        staleness = self.staleness_seconds()
        self._touch_staleness()
        probes = {"model_staleness_seconds": (staleness, staleness)}
        statuses = obs.evaluate_slos(self._slo_rules, probes)
        pool = self._pool
        running = pool is not None and pool.alive_count() > 0
        state = obs.worst_state(statuses)
        if pool is not None and not self._closed and not running:
            state = "breach"
        return {
            "state": state,
            "slos": [status.snapshot() for status in statuses],
            "staleness_seconds": staleness,
            "background_running": running,
            "background_priority": (None if pool is None
                                    else pool.priorities[0]),
            "last_error": self._last_error,
            "closed": self._closed,
        }

    def stats(self) -> dict:
        """One JSON-able snapshot of the loop's state."""
        with self._lock:
            return {
                "rounds": self._round_index,
                "trained_offset": self._trained_offset,
                "pending": self.pending(),
                "active": self.registry.active_name,
                "rollback_target": self._previous_name,
                "created_versions": list(self._created),
                "active_probe_rmse": (None if self._active_probe is None
                                      else self._active_probe.rmse),
                "log": self.log.stats(),
            }

    # ------------------------------------------------------------------ #
    # Metrics plumbing (mirrors the serve tier's helpers)
    # ------------------------------------------------------------------ #
    def _metric_name(self, name: str) -> str:
        return f"online.{name}"

    def _counter(self, name: str):
        return self.metrics.counter(self._metric_name(name))

    def _gauge(self, name: str):
        return self.metrics.gauge(self._metric_name(name))

    def _histogram(self, name: str):
        return self.metrics.histogram(self._metric_name(name))

    def _windowed_histogram(self, name: str):
        cfg = self.config
        return self.metrics.instrument(
            self._metric_name(name),
            lambda full_name: obs.WindowedHistogram(
                full_name, window_seconds=cfg.window_seconds,
                num_slices=self._num_slices, clock=self._clock))
