"""``repro.serve`` — online inference for trained HIRE models.

The serving subsystem turns the offline :class:`~repro.core.HIREPredictor`
pipeline into an always-on prediction service:

* :mod:`~repro.serve.registry` — named checkpoint/model versions with
  atomic hot swap, loading HIRE + config straight from checkpoint metadata;
* :mod:`~repro.serve.batcher` — a bounded-queue micro-batcher coalescing
  ``(user, item_ids)`` requests by size/deadline into shared forward passes;
* :mod:`~repro.serve.cache` — an LRU cache for assembled prediction
  contexts, with entity-tagged fine-grained invalidation driven by a
  per-entity reverse index;
* :mod:`~repro.serve.dataplane` — the shared :class:`GraphStore`: atomic
  graph snapshots, incremental delta application
  (:meth:`RatingGraph.apply_deltas`), per-entity version tracking;
* :mod:`~repro.serve.workers` — a thread worker pool with load-shedding
  backpressure and graceful, drain-aware shutdown;
* :mod:`~repro.serve.service` — the :class:`PredictionService` façade tying
  these together behind ``submit()`` / ``predict()`` / ``close()``, with
  latency/queue/cache telemetry through :mod:`repro.obs`;
* :mod:`~repro.serve.workload` — workload synthesis (skewed, power-law,
  update bursts), JSONL persistence, and replay (the ``repro-experiments
  serve`` CLI builds on this).

Because context assembly derives its RNG from ``(seed, user, sample,
chunk)`` (:func:`repro.core.task_chunk_rng`), served scores are
**bit-identical** to a sequential ``HIREPredictor(per_task_rng=True)`` no
matter how requests are batched, cached, or spread across workers.  See
``docs/serving.md``.
"""

from .batcher import MicroBatcher, PredictRequest, group_requests
from .cache import CacheStats, ContextCache, context_cache_key
from .dataplane import (
    EntityVersions,
    GraphSnapshot,
    GraphStore,
    UpdateResult,
    dedupe_deltas,
)
from .errors import (
    QueueFullError,
    RequestError,
    ServeError,
    ServiceClosedError,
    UnknownModelError,
)
from .registry import ModelRegistry, ModelVersion
from .service import PredictionService, ServiceConfig
from .workers import BoundedQueue, WorkerPool
from .workload import (
    WorkloadRequest,
    load_workload,
    replay_workload,
    save_workload,
    synthesize_power_law_workload,
    synthesize_update_bursts,
    synthesize_workload,
)

__all__ = [
    # errors
    "ServeError",
    "QueueFullError",
    "ServiceClosedError",
    "UnknownModelError",
    "RequestError",
    # registry
    "ModelRegistry",
    "ModelVersion",
    # batching / queueing
    "MicroBatcher",
    "PredictRequest",
    "group_requests",
    "BoundedQueue",
    "WorkerPool",
    # cache
    "ContextCache",
    "CacheStats",
    "context_cache_key",
    # data plane
    "GraphStore",
    "GraphSnapshot",
    "EntityVersions",
    "UpdateResult",
    "dedupe_deltas",
    # service
    "PredictionService",
    "ServiceConfig",
    # workload
    "WorkloadRequest",
    "synthesize_workload",
    "synthesize_power_law_workload",
    "synthesize_update_bursts",
    "save_workload",
    "load_workload",
    "replay_workload",
]
