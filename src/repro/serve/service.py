"""The :class:`PredictionService` façade: online HIRE inference.

Ties the serving pieces together behind ``submit()`` / ``predict()`` /
``close()``:

* requests enter a bounded queue (:mod:`~repro.serve.workers`) and are
  coalesced into micro-batches (:mod:`~repro.serve.batcher`);
* context assembly reuses the offline predictor's code path
  (:func:`repro.core.assemble_user_chunks`) with the deterministic
  per-request RNG derivation (:func:`repro.core.task_chunk_rng`), so
  served scores are **bit-identical** to a sequential
  ``HIREPredictor(per_task_rng=True)`` — regardless of batch composition,
  worker count, or cache state;
* assembled contexts are memoised in an LRU cache
  (:mod:`~repro.serve.cache`), invalidated **fine-grained** on graph
  updates: the shared :class:`~repro.serve.dataplane.GraphStore` applies
  rating deltas incrementally (:meth:`RatingGraph.apply_deltas`) and
  reports exactly which entities changed, so only entries whose assembly
  read a changed user/item are evicted — entries for untouched
  neighbourhoods survive (keys carry the store *epoch*, which bumps only
  on full invalidations such as candidate-pool growth);
* contexts of a batch are grouped into *shape buckets* — ``(n, m)``
  rounded up to ``pack_bucket`` multiples, bounded by ``pack_max_waste``
  — and each bucket executes as one padded, stacked
  :func:`repro.nn.inference.forward_inference_packed` call whose real
  rows are bitwise identical to unpadded per-request forwards;
* a warm-entity :class:`repro.nn.inference.EmbeddingStore` reuses encoder
  attribute rows across requests, dropped on registry hot swaps and
  invalidated per-entity on ``update_ratings``;
* latency histograms (p50/p99), queue-depth gauges, pad-waste/bucket
  occupancy and cache hit-rate counters stream into a
  :class:`repro.obs.MetricsRegistry`;
* the telemetry plane rides along, fully passive: per-request stage
  traces (:mod:`repro.obs.trace`), rolling windowed rates/quantiles
  (:mod:`repro.obs.windows`), SLO evaluation surfaced by :meth:`health`
  (:mod:`repro.obs.slo`), and an optional background JSONL exporter
  (:mod:`repro.obs.export`) — everything on one injectable clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from concurrent.futures import Future

import numpy as np

from .. import nn, obs
from ..core.model import HIRE
from ..core.predictor import (
    assemble_user_chunks,
    build_serving_graph,
    task_chunk_rng,
)
from ..core.sampling import ContextSampler, NeighborhoodSampler
from ..data.bipartite import RatingGraph
from .batcher import MicroBatcher, PredictRequest, group_requests
from .cache import ContextCache, context_cache_key
from .dataplane import GraphStore, UpdateResult
from .errors import QueueFullError, RequestError, ServiceClosedError
from .registry import ModelRegistry
from .workers import WorkerPool

__all__ = ["PredictionService", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Knobs of the online prediction service."""

    # Context assembly (mirrors HIREPredictor's defaults).
    context_users: int = 32
    context_items: int = 32
    reveal_fraction: float = 0.1
    num_context_samples: int = 1
    seed: int = 0
    # Micro-batching.
    max_batch_size: int = 8
    max_wait_seconds: float = 0.002
    queue_size: int = 64
    num_workers: int = 1
    # Context cache.
    cache_enabled: bool = True
    cache_entries: int = 2048
    # Adaptive context budgets: when on, requests without explicit budget
    # overrides get per-request (n, m) from budget_ladder — a tuple of
    # (queue_depth_threshold, context_users, context_items) rungs, first
    # threshold 0, thresholds strictly increasing, budgets non-increasing
    # (shrink under load, grow back when the queue drains).  The deepest
    # rung whose threshold <= the current queue depth wins.  Degraded
    # predictions stay bit-identical to sequential prediction at the same
    # (n, m); the measured quality/latency trade per rung comes from the
    # Pareto bench (BENCH_pareto.json).
    adaptive_budgets: bool = False
    budget_ladder: tuple = ()
    # Belt-and-braces: rebuild from scratch on every update too and assert
    # the incremental graph bitwise identical.
    incremental_verify: bool = False
    # Padded packing: contexts whose (n, m) land in the same bucket —
    # dimensions rounded up to the next pack_bucket multiple, unless that
    # inflates the cell count by more than pack_max_waste — execute as one
    # padded stacked plan call.  Exact: real rows are bitwise identical to
    # unpadded per-request forwards (see docs/serving.md).
    pack_contexts: bool = True
    pack_bucket: int = 8
    pack_max_waste: float = 1.0
    metrics_prefix: str = "serve"
    # Telemetry plane (all passive — see docs/observability.md).
    # Per-request stage tracing into a bounded ring buffer; trace_sink
    # optionally mirrors completed traces to a JSONL file.
    trace_enabled: bool = True
    trace_buffer: int = 256
    trace_sink: str | None = None
    # Rolling windows for rates/quantiles and burn-rate SLO evaluation:
    # the long window is the budget horizon, the short window the "is it
    # bad right now" probe (it also sets the window slice granularity).
    window_seconds: float = 60.0
    short_window_seconds: float = 10.0
    # SLO rules evaluated by health(); () = obs.default_serve_rules().
    slo_rules: tuple = ()
    # Background telemetry export (None disables the exporter thread).
    export_path: str | None = None
    export_interval_seconds: float = 5.0

    def __post_init__(self):
        if self.num_context_samples < 1:
            raise ValueError("num_context_samples must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.pack_bucket < 1:
            raise ValueError("pack_bucket must be >= 1")
        if self.pack_max_waste < 0:
            raise ValueError("pack_max_waste must be >= 0")
        if self.trace_buffer < 1:
            raise ValueError("trace_buffer must be >= 1")
        if self.window_seconds <= 0 or self.short_window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.short_window_seconds > self.window_seconds:
            raise ValueError("short_window_seconds must be <= window_seconds")
        if self.export_interval_seconds <= 0:
            raise ValueError("export_interval_seconds must be positive")
        self.budget_ladder = tuple(
            (int(depth), int(n), int(m)) for depth, n, m in self.budget_ladder)
        if self.adaptive_budgets:
            if not self.budget_ladder:
                raise ValueError(
                    "adaptive_budgets needs a budget_ladder of "
                    "(queue_depth, context_users, context_items) rungs")
            if self.budget_ladder[0][0] != 0:
                raise ValueError("the first ladder rung must have queue "
                                 "depth threshold 0 (the idle budgets)")
            for (d0, n0, m0), (d1, n1, m1) in zip(self.budget_ladder,
                                                  self.budget_ladder[1:]):
                if d1 <= d0:
                    raise ValueError(
                        "ladder queue-depth thresholds must be strictly "
                        "increasing")
                if n1 > n0 or m1 > m0:
                    raise ValueError(
                        "ladder budgets must be non-increasing with depth "
                        "(deeper queue -> smaller contexts)")
            if any(n < 2 or m < 2 for _, n, m in self.budget_ladder):
                raise ValueError("ladder context budgets must be >= 2")


class PredictionService:
    """Online rating prediction over a trained (registry of) HIRE model(s).

    Parameters
    ----------
    models:
        A :class:`~repro.serve.registry.ModelRegistry` (hot-swappable) or a
        bare :class:`HIRE`.
    graph:
        The visible rating graph requests are scored against (warm training
        ratings plus any revealed cold supports).
    candidate_users / candidate_items:
        Entity pools the context sampler may draw from.
    """

    def __init__(self, models: ModelRegistry | HIRE, graph: RatingGraph,
                 candidate_users: np.ndarray, candidate_items: np.ndarray,
                 sampler: ContextSampler | None = None,
                 config: ServiceConfig | None = None,
                 metrics: obs.MetricsRegistry | None = None,
                 rating_log=None,
                 clock=time.monotonic):
        self.config = config or ServiceConfig()
        self._registry = models if isinstance(models, ModelRegistry) else None
        self._model = None if self._registry is not None else models
        if self._model is not None:
            self._model.eval()
        self.sampler = sampler or NeighborhoodSampler()
        self.metrics = metrics if metrics is not None else obs.MetricsRegistry()
        # One injectable clock for everything time-related on the serve
        # path: batcher deadlines, request stamps, latency histograms,
        # rolling windows, trace timings.  One timebase means the numbers
        # agree with each other — and with a fake clock in tests.
        self._clock = clock
        self.cache = (ContextCache(self.config.cache_entries)
                      if self.config.cache_enabled else None)
        # The store owns the optional repro.online.RatingLog tee: apply()
        # appends every *applied* delta, so the incremental-training loop
        # consumes exactly what the graph absorbed.  Deltas are checked
        # against the served model's rating scale.
        self._store = GraphStore(
            graph,
            np.asarray(candidate_users, dtype=np.int64),
            np.asarray(candidate_items, dtype=np.int64),
            rating_range=self._resolve_model().rating_range,
            verify=self.config.incremental_verify,
            rating_log=rating_log)
        self._store.subscribe(self._on_graph_update)
        self._embed_store = None
        # Bucket-homogeneous batches keep each micro-batch a single packed
        # plan execution downstream; with uniform budgets every request
        # shares one bucket, so dispatch matches the unbucketed batcher.
        bucket_key = self._request_bucket if self.config.pack_contexts else None
        self._batcher = MicroBatcher(self.config.max_batch_size,
                                     self.config.max_wait_seconds,
                                     self.config.queue_size,
                                     clock=clock,
                                     bucket_key=bucket_key)
        self._init_telemetry()
        self._pool = WorkerPool(self._worker_loop, self.config.num_workers)
        self._closed = False
        self._pool.start()

    def _init_telemetry(self) -> None:
        """Build the trace / window / SLO / export plane (all passive)."""
        cfg = self.config
        self._slo_rules = tuple(cfg.slo_rules) or obs.default_serve_rules()
        # Rolling windows sliced at short-window granularity so the short
        # window is exactly one slice of the long one.
        self._num_slices = max(1, round(cfg.window_seconds
                                        / cfg.short_window_seconds))
        self._window_latency = self._windowed_histogram("window.latency_seconds")
        self._window_requests = self._windowed_counter("window.requests_total")
        self._window_rejected = self._windowed_counter("window.rejected_total")
        self._window_completed = self._windowed_counter("window.completed_total")
        self._window_cache_hits = self._windowed_counter("window.cache_hits_total")
        self._window_cache_misses = self._windowed_counter(
            "window.cache_misses_total")
        # Assembly-plane windows: per-batch assembly time plus the adaptive
        # budget ladder's decisions (see docs/adaptive_context.md).
        self._window_assemble_seconds = self._windowed_histogram(
            "assemble.window.seconds")
        self._window_budget_users = self._windowed_histogram(
            "assemble.window.budget_users")
        self._window_budget_items = self._windowed_histogram(
            "assemble.window.budget_items")
        self._window_degraded = self._windowed_counter(
            "assemble.window.degraded_total")
        self.tracer = (obs.Tracer(capacity=cfg.trace_buffer,
                                  sink_path=cfg.trace_sink,
                                  clock=self._clock)
                       if cfg.trace_enabled else None)
        self._stage_windows = ({stage: self._windowed_histogram(
                                    f"stage.{stage}_seconds")
                                for stage in obs.TRACE_STAGES}
                               if cfg.trace_enabled else {})
        self.exporter = (obs.TelemetryExporter(
                             cfg.export_path, registry=self.metrics,
                             interval_seconds=cfg.export_interval_seconds,
                             sources={"health": self.health},
                             clock=self._clock)
                         if cfg.export_path is not None else None)

    @classmethod
    def from_split(cls, models, split, tasks, **kwargs) -> "PredictionService":
        """Build the serving state exactly like :class:`HIREPredictor` does."""
        graph, candidate_users, candidate_items = build_serving_graph(split, tasks)
        return cls(models, graph, candidate_users, candidate_items, **kwargs)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, user: int, item_ids, support_items=None, *,
               context_users: int | None = None,
               context_items: int | None = None) -> Future:
        """Enqueue one prediction; resolves to scores in ``item_ids`` order.

        ``context_users`` / ``context_items`` override the service's context
        budgets for this request (latency/quality knob per caller); requests
        with nearby budgets still stack into one padded forward via shape
        buckets.  With ``adaptive_budgets`` on, requests *without* explicit
        overrides get their budgets from the configured ladder instead,
        keyed by the queue depth at admission (explicit overrides always
        win — the caller asked for a specific quality point).

        Never blocks: raises :class:`QueueFullError` when the bounded queue
        is full (load shedding), :class:`ServiceClosedError` after
        :meth:`close`, and :class:`RequestError` for requests that can
        never succeed.
        """
        return self.submit_request(user, item_ids, support_items,
                                   context_users=context_users,
                                   context_items=context_items).future

    def _ladder_budgets(self, depth: int) -> tuple[int, tuple[int, int]]:
        """The deepest ladder rung whose threshold <= ``depth``, as
        ``(rung_index, (context_users, context_items))``."""
        ladder = self.config.budget_ladder
        rung = 0
        for index, (threshold, _, _) in enumerate(ladder):
            if depth >= threshold:
                rung = index
        _, n, m = ladder[rung]
        return rung, (n, m)

    def submit_request(self, user: int, item_ids, support_items=None, *,
                       context_users: int | None = None,
                       context_items: int | None = None) -> PredictRequest:
        """:meth:`submit`, returning the enqueued :class:`PredictRequest`.

        The request carries the *effective* ``context_users`` /
        ``context_items`` (after the adaptive ladder, when it applied) and
        the future — which is what lets a caller replay the exact degraded
        budgets through a sequential reference and verify bit-identity.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        user = int(user)
        for name, value in (("context_users", context_users),
                            ("context_items", context_items)):
            if value is not None and int(value) < 2:
                raise RequestError(f"{name} override must be >= 2")
        item_ids = np.asarray(item_ids, dtype=np.int64).ravel()
        graph_state = self._store.state
        graph = graph_state.graph
        if item_ids.size == 0:
            raise RequestError("a request needs at least one item")
        if not 0 <= user < graph.num_users:
            raise RequestError(f"user {user} outside [0, {graph.num_users})")
        if (item_ids < 0).any() or (item_ids >= graph.num_items).any():
            raise RequestError(f"item ids outside [0, {graph.num_items})")
        for item in item_ids:
            if graph.has_rating(user, int(item)):
                raise RequestError(
                    f"({user}, {int(item)}) is already rated in the visible "
                    "graph; serving scores unrated pairs only")
        if support_items is None:
            support_items = graph.items_of_user(user)
        support_items = np.asarray(support_items, dtype=np.int64).ravel()

        rung = None
        if (self.config.adaptive_budgets and context_users is None
                and context_items is None):
            rung, (context_users, context_items) = self._ladder_budgets(
                self._batcher.depth)

        request = PredictRequest(
            user=user, item_ids=item_ids, support_items=support_items,
            context_users=None if context_users is None else int(context_users),
            context_items=None if context_items is None else int(context_items),
            graph_state=graph_state)
        if self.tracer is not None:
            # Attached before the queue so a worker can never race a
            # traceless request; rejected requests just drop their trace.
            request.trace = self.tracer.begin()
        try:
            self._batcher.submit(request)
        except (QueueFullError, ServiceClosedError):
            self._counter("rejected_total").inc()
            self._window_rejected.inc()
            raise
        self._counter("requests_total").inc()
        self._window_requests.inc()
        self._gauge("queue_depth").set(self._batcher.depth)
        if rung is not None:
            self._gauge("assemble.budget_rung").set(rung)
            self._window_budget_users.observe(context_users)
            self._window_budget_items.observe(context_items)
            if rung > 0:
                self._counter("assemble.degraded_total").inc()
                self._window_degraded.inc()
        return request

    def predict(self, user: int, item_ids, support_items=None,
                timeout: float | None = 30.0, *,
                context_users: int | None = None,
                context_items: int | None = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(user, item_ids, support_items,
                           context_users=context_users,
                           context_items=context_items).result(timeout)

    def predict_many(self, requests, timeout: float = 60.0) -> list[np.ndarray]:
        """Submit a sequence of workload-style requests, gather in order.

        Each element needs ``user`` / ``item_ids`` / ``support_items``
        attributes plus optional ``context_users`` / ``context_items``
        budget overrides (:class:`~repro.serve.workload.WorkloadRequest`
        fits).  All requests are enqueued before any result is awaited, so
        micro-batching still coalesces across them.
        """
        futures = [
            self.submit(request.user, request.item_ids, request.support_items,
                        context_users=getattr(request, "context_users", None),
                        context_items=getattr(request, "context_items", None))
            for request in requests
        ]
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------ #
    # Graph updates
    # ------------------------------------------------------------------ #
    def update_ratings(self, ratings: np.ndarray) -> int:
        """Apply (user, item, rating) deltas to the visible graph.

        Deltas are deduped before application: within the batch the most
        recent rating per ``(user, item)`` pair wins (a re-rated pair keeps
        only its last value), and triples that restate the graph's current
        value are no-ops.  When anything survives, the
        :class:`~repro.serve.dataplane.GraphStore` derives the next graph
        incrementally via :meth:`RatingGraph.apply_deltas`, the
        candidate pools grow with any new entities, the graph generation
        bumps, and the applied deltas tee into the store's ``rating_log``.
        Invalidation is **fine-grained**: only cache entries and warm
        embedding rows whose assembly read a changed user/item are dropped;
        the rest survive (pool growth forces a full drop — see
        ``docs/serving.md``).  Returns the number of deltas applied — zero
        means nothing changed (and nothing was invalidated).  A batch with
        a non-integral or out-of-range id, or a rating that is non-finite
        or outside the served model's ``rating_range``, raises
        ``ValueError`` and applies nothing.

        In-flight requests are unaffected: each request pins the graph
        snapshot it was admitted under and executes against it, so a
        delta that rates a queried pair can never fail (or leak into) a
        request that was already accepted.  Only submissions after the
        update see the new graph.
        """
        return self._store.apply(ratings).applied

    def _on_graph_update(self, result: UpdateResult) -> None:
        """GraphStore subscriber: translate an update into invalidation."""
        self._counter("updates_applied_total").inc(result.applied)
        self._counter("updates_skipped_total").inc(result.skipped)
        if not result.applied:
            return
        if self.cache is not None:
            if result.full_invalidation:
                self.cache.invalidate()
            else:
                evicted, spared = self.cache.invalidate_entities(
                    result.changed_users, result.changed_items)
                self._counter("invalidation_evicted_total").inc(evicted)
                self._counter("invalidation_spared_total").inc(spared)
        if result.full_invalidation:
            # Pool growth may have introduced entities the store has never
            # sized rows for; retire it wholesale.
            self._embed_store = None
        else:
            store = self._embed_store
            if store is not None:
                store.invalidate_entities(result.changed_users,
                                          result.changed_items)

    @property
    def graph_store(self) -> GraphStore:
        """The data plane this service serves from."""
        return self._store

    @property
    def rating_log(self):
        return self._store.rating_log

    @property
    def graph_generation(self) -> int:
        return self._store.state.generation

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop intake and shut the workers down.

        ``drain=True`` processes every queued request before returning;
        ``drain=False`` fails the still-queued requests' futures with
        :class:`ServiceClosedError`.  Either way every submitted request's
        future resolves exactly once — none are lost.
        """
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        if not drain:
            leftovers = self._batcher.drain()
            error = ServiceClosedError("service closed before execution")
            for request in leftovers:
                if not request.future.done():
                    request.future.set_exception(error)
        self._pool.join(timeout)
        self._pool.close(1.0)
        # Telemetry last, after the workers stop producing it: the
        # exporter's close writes one final drain snapshot (which calls
        # health()), then the tracer finalizes its sink.
        if self.exporter is not None:
            self.exporter.close()
        if self.tracer is not None:
            self.tracer.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _windowed_rate(self, numerator, denominators, window: float | None
                       ) -> float | None:
        """``num / sum(denoms)`` over one window; ``None`` when idle."""
        total = sum(d.total(window) for d in denominators)
        if total <= 0:
            return None
        return numerator.total(window) / total

    def _probes(self) -> dict:
        """The SLO probe values as ``{probe: (short, long)}`` pairs."""
        short = self.config.short_window_seconds

        def p99(window):
            if self._window_latency.count(window) == 0:
                return None
            return self._window_latency.quantile(0.99, window_seconds=window)

        submitted = (self._window_requests, self._window_rejected)
        lookups = (self._window_cache_hits, self._window_cache_misses)
        return {
            "latency_p99_seconds": (p99(short), p99(None)),
            "shed_rate": (
                self._windowed_rate(self._window_rejected, submitted, short),
                self._windowed_rate(self._window_rejected, submitted, None)),
            "cache_hit_rate": (
                self._windowed_rate(self._window_cache_hits, lookups, short),
                self._windowed_rate(self._window_cache_hits, lookups, None)),
            # Fraction of admitted requests the budget ladder degraded —
            # the graceful-degradation twin of shed_rate (not covered by
            # the default rules; attach one via slo_rules to alert on it).
            "degraded_rate": (
                self._windowed_rate(self._window_degraded,
                                    (self._window_requests,), short),
                self._windowed_rate(self._window_degraded,
                                    (self._window_requests,), None)),
        }

    def health(self) -> dict:
        """SLO states over the rolling windows, plus liveness basics.

        ``state`` aggregates every rule (``breach`` > ``warn`` > ``ok``;
        idle probes are ``no_data`` and never escalate).  JSON-able — this
        is also what the telemetry exporter snapshots each tick.
        """
        probes = self._probes()
        statuses = obs.evaluate_slos(self._slo_rules, probes)
        return {
            "state": obs.worst_state(statuses),
            "slos": [status.snapshot() for status in statuses],
            "probes": {name: {"short": short, "long": long}
                       for name, (short, long) in probes.items()},
            "windows": {
                "window_seconds": self.config.window_seconds,
                "short_window_seconds": self.config.short_window_seconds,
            },
            "queue_depth": self._batcher.depth,
            "workers_alive": self._pool.alive_count(),
            "closed": self._closed,
            "graph_generation": self.graph_generation,
        }

    def stats(self) -> dict:
        """Queue, cache, metric, trace, and SLO state as one snapshot."""
        out = {
            "queue_depth": self._batcher.depth,
            "graph_generation": self.graph_generation,
            "updates": self._store.stats(),
            "metrics": self.metrics.snapshot(),
            "health": self.health(),
        }
        if self.tracer is not None:
            out["trace"] = {
                "completed": self.tracer.completed,
                "buffered": len(self.tracer),
                "stage_totals": self.tracer.stage_totals(),
            }
        if self.cache is not None:
            out["cache"] = {**self.cache.stats.snapshot(), "entries": len(self.cache)}
        store = self._embed_store
        if store is not None:
            out["embed_store"] = store.stats()
        return out

    def report(self) -> str:
        """The service's telemetry as ``obs.report`` text tables."""
        lines = [obs.render_metrics_table(self.metrics)]
        if self.tracer is not None:
            lines.append("")
            lines.append(obs.render_trace_table(self.tracer.stage_totals()))
        health = self.health()
        lines.append("")
        lines.append(obs.render_slo_table(health["slos"]))
        lines.append(f"health: {health['state']}")
        if self.cache is not None:
            snap = self.cache.stats.snapshot()
            lines.append("")
            lines.append(
                f"context cache: {len(self.cache)} entries"
                f"   hit rate {snap['hit_rate'] * 100:.1f}%"
                f"   ({snap['hits']} hits / {snap['misses']} misses,"
                f" {snap['evictions']} evicted)")
            precision = snap["invalidation_precision"]
            if precision is not None:
                lines.append(
                    f"invalidation: {snap['entries_spared']} spared /"
                    f" {snap['entries_evicted']} evicted across"
                    f" {snap['partial_invalidations']} sweeps"
                    f"   precision {precision * 100:.1f}%")
        updates = self._store.stats()
        lines.append(
            f"graph updates: {updates['applied_total']} applied /"
            f" {updates['skipped_total']} skipped"
            f" (generation {updates['generation']}, epoch {updates['epoch']},"
            f" {updates['partial_invalidations']} partial /"
            f" {updates['full_invalidations']} full invalidations)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Worker internals
    # ------------------------------------------------------------------ #
    def _metric_name(self, name: str) -> str:
        return f"{self.config.metrics_prefix}.{name}"

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

    def _windowed_counter(self, name: str):
        cfg = self.config
        return self.metrics.instrument(
            self._metric_name(name),
            lambda full_name: obs.WindowedCounter(
                full_name, window_seconds=cfg.window_seconds,
                num_slices=self._num_slices, clock=self._clock))

    def _resolve_model(self) -> HIRE:
        if self._registry is not None:
            return self._registry.active()[1]
        return self._model

    def _worker_loop(self, stop_event) -> bool | None:
        try:
            batch = self._batcher.next_batch(timeout=0.05)
        except ServiceClosedError:
            return False  # closed and drained: exit
        if not batch:
            return None  # idle tick; keep polling (or notice stop_event)
        self._process_batch(batch)
        return None

    def _process_batch(self, batch: list[PredictRequest]) -> None:
        self._gauge("queue_depth").set(self._batcher.depth)
        self._histogram("batch_size").observe(len(batch))
        self._counter("batches_total").inc()
        try:
            model = self._resolve_model()
            fallback_state = self._store.state
            groups = group_requests(batch)

            assemble_start = self._clock()
            plans = []
            with obs.span("serve/assemble"):
                for key, requests in groups:
                    # Snapshot isolation: assemble against the graph the
                    # request was admitted under (requests from different
                    # generations never coalesce — generation is in the
                    # coalescing key).
                    state = requests[0].graph_state or fallback_state
                    plans.append((requests, self._chunks_for(requests[0],
                                                             state)))
            assembled_at = self._clock()
            # Pack time accumulates here, only for batches that ran the
            # packed path, so the forward stage can report model execution
            # exclusive of padded stacking.
            stage_seconds = {}
            with obs.span("serve/forward"):
                scores_by_plan = self._score_plans(model, plans, stage_seconds)
            forwarded_at = self._clock()

            # Batch-level stages are shared by every request in the batch.
            stage_seconds["assemble"] = assembled_at - assemble_start
            self._window_assemble_seconds.observe(stage_seconds["assemble"])
            stage_seconds["forward"] = max(
                forwarded_at - assembled_at - stage_seconds.get("pack", 0.0),
                0.0)
            for (requests, _), scores in zip(plans, scores_by_plan):
                self._resolve(requests, scores, forwarded_at, stage_seconds)
        except Exception as error:  # fail the whole batch, never hang callers
            self._counter("failed_total").inc(len(batch))
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)

    def _resolve(self, requests: list[PredictRequest], scores: np.ndarray,
                 forwarded_at: float, stage_seconds: dict) -> None:
        latency = self._histogram("latency_seconds")
        for index, request in enumerate(requests):
            # Coalesced requests each get their own array (no sharing).
            request.future.set_result(scores if index == 0 else scores.copy())
            now = self._clock()
            total = now - request.enqueued_at
            latency.observe(total)
            self._window_latency.observe(total)
            self._counter("completed_total").inc()
            self._window_completed.inc()
            trace = request.trace
            if trace is not None and self.tracer is not None:
                trace.mark("enqueue",
                           request.dequeued_at - request.enqueued_at)
                trace.mark("batch_form",
                           request.batch_formed_at - request.dequeued_at)
                trace.mark("assemble", stage_seconds["assemble"])
                if "pack" in stage_seconds:
                    trace.mark("pack", stage_seconds["pack"])
                trace.mark("forward", stage_seconds["forward"])
                trace.mark("respond", now - forwarded_at)
                self.tracer.finish(trace, total)
                for stage, seconds in trace.stages.items():
                    self._stage_windows[stage].observe(seconds)

    # -- shape buckets ------------------------------------------------- #
    def _effective_budgets(self, request: PredictRequest) -> tuple[int, int]:
        """Context budgets for one request (per-request overrides applied)."""
        cfg = self.config
        n = cfg.context_users if request.context_users is None else request.context_users
        m = cfg.context_items if request.context_items is None else request.context_items
        return n, m

    def _bucket_dims(self, n: int, m: int) -> tuple[int, int]:
        """Round ``(n, m)`` up to the padded bucket shape, or return them
        unchanged when padding is disabled for this shape.

        Shapes with ``n < 2`` or ``m < 2`` never pad: a single-token axis
        turns padded linears into the one GEMM shape whose padded result is
        not bitwise stable (see ``docs/nn_substrate.md``).  Shapes whose
        bucket would inflate the cell count past ``pack_max_waste`` stay
        exact as well — padding them would burn more FLOPs than stacking
        saves.
        """
        b = self.config.pack_bucket
        if b <= 1 or n < 2 or m < 2:
            return n, m
        nb = -(-n // b) * b
        mb = -(-m // b) * b
        if (nb * mb) / (n * m) - 1.0 > self.config.pack_max_waste:
            return n, m
        return nb, mb

    def _request_bucket(self, request: PredictRequest) -> tuple[int, int]:
        """The micro-batcher's bucket key: padded shape of this request."""
        return self._bucket_dims(*self._effective_budgets(request))

    def _embed_store_for(self, model: HIRE):
        """The warm-entity row store for ``model``, rebuilt when the model
        or its parameter generation changed (registry hot swap)."""
        store = self._embed_store
        if store is None or not store.valid_for(model):
            store = nn.inference.EmbeddingStore(model)
            self._embed_store = store
        return store

    # -- exact path ---------------------------------------------------- #
    def _chunks_for(self, request: PredictRequest, graph_state) -> list:
        """Per-sample assembled chunks for one request (cache-aware).

        Keys carry the store *epoch* (full-invalidation counter), not the
        per-update generation, so cached assemblies survive updates that
        never touched their entities.  On a miss the finished assembly is
        put back tagged with the exact users/items its contexts read,
        guarded by the store's per-entity staleness predicate — a worker
        pinned to a pre-update snapshot drops its entry instead of caching
        stale contexts.
        """
        graph = graph_state.graph
        cfg = self.config
        context_users, context_items = self._effective_budgets(request)
        key = context_cache_key(graph_state.epoch, self.sampler.name,
                                request.user,
                                request.item_ids, request.support_items,
                                context_users, context_items,
                                cfg.reveal_fraction, cfg.seed)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self._counter("cache_hits_total").inc()
                self._window_cache_hits.inc()
                return cached
            self._counter("cache_misses_total").inc()
            self._window_cache_misses.inc()

        samples = []
        for sample_index in range(cfg.num_context_samples):
            def rng_factory(start, _sample=sample_index):
                return task_chunk_rng(cfg.seed, request.user, _sample, start)
            samples.append(assemble_user_chunks(
                graph, self.sampler, request.user,
                request.item_ids, request.support_items,
                context_users=context_users,
                context_items=context_items,
                reveal_fraction=cfg.reveal_fraction,
                candidate_users=graph_state.candidate_users,
                candidate_items=graph_state.candidate_items,
                rng_factory=rng_factory,
            ))
        if self.cache is not None:
            touched_users = np.unique(np.concatenate(
                [chunk.context.users for chunks in samples for chunk in chunks]))
            touched_items = np.unique(np.concatenate(
                [chunk.context.items for chunks in samples for chunk in chunks]))
            self.cache.put(key, samples,
                           users=touched_users, items=touched_items,
                           generation=graph_state.generation,
                           guard=self._store.changed_since)
        return samples

    def _score_plans(self, model: HIRE, plans,
                     stage_seconds: dict | None = None) -> list[np.ndarray]:
        """Score every plan's chunks, stacking same-*bucket* contexts into
        one padded :func:`~repro.nn.inference.forward_inference_packed`
        execution (bit-identical per real row to solo forwards).  Engine
        forwards pass each chunk's ``user_row``, so only the rows the
        scores read run through the last HIM block.

        Contexts whose exact shape already fills its bucket (the common
        case under uniform budgets) take the unpadded
        ``forward_inference_many`` path; mixed-shape buckets pad each
        context up to the bucket shape and run once.  With
        ``pack_contexts`` off, grouping is by exact shape.
        """
        entries = []  # (plan_index, sample_index, chunk)
        for plan_index, (_requests, samples) in enumerate(plans):
            for sample_index, chunks in enumerate(samples):
                for chunk in chunks:
                    entries.append((plan_index, sample_index, chunk))
        if not entries:
            return []

        pack = self.config.pack_contexts
        store = self._embed_store_for(model)

        by_bucket: dict[tuple[int, int], list] = {}
        for entry in entries:
            context = entry[2].context
            bucket = (self._bucket_dims(context.n, context.m)
                      if pack else (context.n, context.m))
            by_bucket.setdefault(bucket, []).append(entry)

        predicted: dict[int, np.ndarray] = {}
        with nn.no_grad():
            for (nb, mb), bucket_entries in by_bucket.items():
                contexts = [chunk.context for _, _, chunk in bucket_entries]
                if not all(c.n == nb and c.m == mb for c in contexts):
                    self._score_packed(model, nb, mb, bucket_entries,
                                       contexts, store, predicted,
                                       stage_seconds)
                    continue
                rows = [chunk.user_row for _, _, chunk in bucket_entries]
                if len(contexts) == 1:
                    outputs = nn.inference.forward_inference(
                        model, contexts[0], embed_store=store, rows=rows)
                else:
                    outputs = nn.inference.forward_inference_many(
                        model, contexts, embed_store=store, rows=rows)
                # Extract each chunk's scores immediately: engine outputs
                # are views into a reused workspace, overwritten by the
                # next bucket's forward.
                for (_, _, chunk), output in zip(bucket_entries, outputs):
                    predicted[id(chunk)] = output[chunk.cols]

        scores_by_plan: list[np.ndarray] = []
        for plan_index, (requests, samples) in enumerate(plans):
            num_items = len(requests[0].item_ids)
            total: np.ndarray | None = None
            for chunks in samples:
                part = np.empty(num_items, dtype=np.float64)
                for chunk in chunks:
                    part[chunk.start:chunk.start + len(chunk)] = (
                        predicted[id(chunk)])
                # Same accumulation order as HIREPredictor.predict_task, so
                # multi-sample averages stay bit-identical too.
                total = part if total is None else total + part
            scores_by_plan.append(total / len(samples))
        return scores_by_plan

    def _score_packed(self, model: HIRE, nb: int, mb: int, bucket_entries,
                      contexts, store, predicted,
                      stage_seconds: dict | None = None) -> None:
        """One padded stacked execution for a mixed-shape bucket."""
        real = sum(c.n * c.m for c in contexts)
        padded = nb * mb * len(contexts)
        pack_start = self._clock()
        with obs.span("serve/pack"):
            outputs, slots = nn.inference.forward_inference_packed(
                model, contexts, nb, mb, embed_store=store,
                rows=[chunk.user_row for _, _, chunk in bucket_entries])
            for index, (_, _, chunk) in enumerate(bucket_entries):
                predicted[id(chunk)] = outputs[slots[index]][chunk.cols]
        if stage_seconds is not None:
            stage_seconds["pack"] = (stage_seconds.get("pack", 0.0)
                                     + self._clock() - pack_start)
        self._counter("packed_contexts_total").inc(len(contexts))
        self._gauge("pack_pad_waste").set(padded / real - 1.0)
        self._histogram("pack_bucket_occupancy").observe(len(contexts))
