""":class:`ContextPipeline` — prefetching orchestration of source + buffer.

Worker threads claim step indices from the
:class:`~repro.pipeline.buffer.PrefetchBuffer`, sample that step's context
batch through the :class:`~repro.pipeline.source.ContextBatchSource`, and
publish it; the trainer takes steps in order.  Because every batch is a
pure function of ``(seed, step, slot)``, the result is bit-identical to a
sequential loop no matter the worker count or completion order.

Telemetry goes through a :class:`repro.obs.MetricsRegistry` (own instance
by default, like :class:`repro.serve.PredictionService`):

========================== ========= ==========================================
``pipeline.buffer_hits``    counter  takes served without waiting
``pipeline.starvations``    counter  takes that had to wait on the buffer
``pipeline.wait_seconds``   histogram consumer wait per take
``pipeline.sample_seconds`` histogram worker-side sampling time per batch
``pipeline.batches``        counter  batches produced
``pipeline.buffer_depth``   gauge    produced-but-untaken steps after a take
========================== ========= ==========================================
"""

from __future__ import annotations

import time

from .. import obs
from ..concurrency import WorkerPool
from .buffer import PipelineError, PrefetchBuffer
from .source import ContextBatchSource

__all__ = ["ContextPipeline"]


class ContextPipeline:
    """Produces training-context batches ahead of the optimiser.

    Workers are daemon threads inside the training process: zero
    serialisation cost, overlap limited to the time the main thread spends
    outside the GIL (BLAS kernels).  Output is bit-identical to sequential
    sampling — the RNG derivation, not the execution schedule, decides
    every draw.
    """

    def __init__(self, source: ContextBatchSource, num_workers: int = 1,
                 buffer_depth: int = 4,
                 metrics: obs.MetricsRegistry | None = None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.source = source
        self.num_workers = num_workers
        self.buffer_depth = buffer_depth
        self.metrics = metrics if metrics is not None else obs.MetricsRegistry()
        self._hits = self.metrics.counter("pipeline.buffer_hits")
        self._starvations = self.metrics.counter("pipeline.starvations")
        self._wait = self.metrics.histogram("pipeline.wait_seconds")
        self._sample = self.metrics.histogram("pipeline.sample_seconds")
        self._batches = self.metrics.counter("pipeline.batches")
        self._depth = self.metrics.gauge("pipeline.buffer_depth")
        self._buffer: PrefetchBuffer | None = None
        self._pool: WorkerPool | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, total_steps: int | None = None) -> "ContextPipeline":
        """Create the buffer and launch the workers; returns ``self``."""
        if self._buffer is not None:
            raise RuntimeError("pipeline already started (one fit per pipeline)")
        self._buffer = PrefetchBuffer(self.buffer_depth, limit=total_steps)
        self._pool = WorkerPool(self._worker_loop, self.num_workers,
                                name="pipeline-thread")
        self._pool.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop production and join the workers."""
        if self._buffer is not None:
            self._buffer.close()
        if self._pool is not None:
            self._pool.close(timeout)

    @property
    def started(self) -> bool:
        return self._buffer is not None

    @property
    def closed(self) -> bool:
        return self._buffer is not None and self._buffer.closed

    def __enter__(self) -> "ContextPipeline":
        if not self.started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self, stop_event) -> bool | None:
        step = self._buffer.claim(timeout=0.1)
        if step is None:
            # Claim window full / limit reached / closed: loop (the pool's
            # stop event ends us) unless production is definitely over.
            if self._buffer.closed or self._buffer.failure is not None:
                return False
            if (self._buffer.limit is not None
                    and not self._claims_remaining()):
                return False
            return None
        start = time.perf_counter()
        try:
            batch = self.source.sample_step(step)
        except BaseException as exc:  # noqa: BLE001 — propagate to consumer
            if not self._buffer.closed:
                self._buffer.fail(exc)
            return False
        self._sample.observe(time.perf_counter() - start)
        self._batches.inc()
        self._buffer.publish(step, batch)
        return None

    def _claims_remaining(self) -> bool:
        buffer = self._buffer
        return buffer.limit is None or buffer._next_claim < buffer.limit

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def take(self, step: int, timeout: float | None = None):
        """The context batch of ``step``; blocks until a worker delivers it.

        Records hit/starvation, wait time, and buffer depth.  Raises
        :class:`~repro.pipeline.buffer.PipelineError` if a worker failed.
        """
        if self._buffer is None:
            raise RuntimeError("pipeline not started; call start() first")
        hit = self._buffer.ready(step)
        start = time.perf_counter()
        batch = self._buffer.take(step, timeout=timeout)
        self._wait.observe(time.perf_counter() - start)
        (self._hits if hit else self._starvations).inc()
        self._depth.set(self._buffer.depth)
        return batch

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-able metrics snapshot (see the module table)."""
        return self.metrics.snapshot()

    def report(self) -> str:
        """Text rendering of the pipeline metrics."""
        return obs.render_metrics_table(self.metrics)
