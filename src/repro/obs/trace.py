"""Per-request tracing: stage-attributed timings with a bounded buffer.

A *trace* follows one serve request through the pipeline's stages —

``enqueue`` (queue wait) → ``batch_form`` (gathering batch-mates) →
``assemble`` (context sampling + encode) → ``forward`` (model execution,
padded or not) → ``respond`` (result fan-out)

— recording the wall time spent in each.  The :class:`Tracer` hands out
monotonically increasing trace ids, keeps the most recent completed traces
in a fixed-size ring buffer (bounded memory, like every other ``obs``
instrument), and can mirror every completed trace to a JSONL sink that
reuses :class:`~repro.obs.recorder.RunRecorder`'s append-only format — so
trace files are readable by :func:`~repro.obs.recorder.read_run` and
tolerate crashes mid-write.

Tracing is **passive**: traces only read clocks and copy floats, never
model, optimiser, or RNG state, so predictions are bit-identical with
tracing on or off.  A sink that fails to write (a full disk) is closed
and its error kept in :attr:`Tracer.sink_error`: the request that
completed the trace is already answered, and the ring keeps filling.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque

from .recorder import RunRecorder

__all__ = ["TRACE_STAGES", "RequestTrace", "Tracer"]

# Pipeline stages in order; every completed trace reports a (possibly
# zero) duration for each.
TRACE_STAGES = ("enqueue", "batch_form", "assemble", "forward", "respond")


class RequestTrace:
    """One in-flight request's stage timings (built up, then finished)."""

    __slots__ = ("trace_id", "started_at", "stages")

    def __init__(self, trace_id: int, started_at: float):
        self.trace_id = trace_id
        self.started_at = started_at
        self.stages: dict[str, float] = {}

    def mark(self, stage: str, seconds: float) -> None:
        """Record the wall time spent in one stage (clamped at >= 0)."""
        self.stages[stage] = max(float(seconds), 0.0)


class Tracer:
    """Issues trace ids and collects completed traces.

    ``capacity`` bounds the in-memory ring buffer; ``sink_path`` optionally
    mirrors every completed trace to a JSONL file (one ``trace`` record per
    request, ``run_start``/``summary`` framing from :class:`RunRecorder`).
    The tracer owns the sink and closes it in :meth:`close`.
    """

    def __init__(self, capacity: int = 256,
                 sink_path: str | os.PathLike | None = None,
                 clock=time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._completed = 0
        self._sink = (RunRecorder(sink_path, config={"capacity": capacity})
                      if sink_path is not None else None)
        self._sink_error: str | None = None

    def begin(self, started_at: float | None = None) -> RequestTrace:
        """Open a trace for one request (id assignment is the only state)."""
        at = self._clock() if started_at is None else started_at
        return RequestTrace(next(self._ids), at)

    def finish(self, trace: RequestTrace, total_seconds: float) -> dict:
        """Fold a completed trace into the ring (and the sink, if any)."""
        record = {
            "trace_id": trace.trace_id,
            "started_at": trace.started_at,
            "total_seconds": max(float(total_seconds), 0.0),
            "stages": {stage: trace.stages.get(stage, 0.0)
                       for stage in TRACE_STAGES},
        }
        with self._lock:
            self._ring.append(record)
            self._completed += 1
            if self._sink is not None:
                try:
                    self._sink.record("trace", **record)
                except OSError as error:
                    self._drop_sink(error)
        return record

    def _drop_sink(self, error: OSError) -> None:
        """Close a sink that failed to write and keep its error (caller
        holds the lock)."""
        self._sink_error = f"{type(error).__name__}: {error}"
        try:
            self._sink.close()
        except OSError:
            pass  # the buffered tail is lost with the sink
        self._sink = None

    @property
    def sink_error(self) -> str | None:
        """The write error that closed the sink, or ``None``."""
        with self._lock:
            return self._sink_error

    def recent(self, n: int | None = None) -> list[dict]:
        """The most recent completed traces, oldest first."""
        with self._lock:
            traces = list(self._ring)
        return traces if n is None else traces[-n:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def completed(self) -> int:
        """Total traces finished over the tracer's lifetime."""
        with self._lock:
            return self._completed

    def stage_totals(self) -> dict[str, dict]:
        """Aggregated stage timings over the buffered traces.

        One entry per stage: ``count`` / ``total_seconds`` /
        ``mean_seconds`` / ``max_seconds``, plus a ``total`` pseudo-stage
        for end-to-end latency.  Computed from the ring buffer, so it
        reflects the most recent ``capacity`` requests.
        """
        with self._lock:
            traces = list(self._ring)
        out: dict[str, dict] = {}
        for stage in (*TRACE_STAGES, "total"):
            values = [t["total_seconds"] if stage == "total"
                      else t["stages"][stage] for t in traces]
            if not values:
                out[stage] = {"count": 0, "total_seconds": 0.0,
                              "mean_seconds": 0.0, "max_seconds": 0.0}
                continue
            total = sum(values)
            out[stage] = {"count": len(values), "total_seconds": total,
                          "mean_seconds": total / len(values),
                          "max_seconds": max(values)}
        return out

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        """Finalize the sink (a no-op without one, or when already closed)."""
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.finalize(traces_completed=self._completed)
                except OSError as error:
                    self._drop_sink(error)
            self._sink = None
