"""Background telemetry export: periodic JSONL snapshots of a registry.

A :class:`TelemetryExporter` runs one daemon thread (built on the shared
:class:`repro.concurrency.WorkerPool`) that snapshots a
:class:`~repro.obs.metrics.MetricsRegistry` — plus any extra ``sources``
(callables returning JSON-able values, e.g. a service's ``health`` or a
tracer's ``stage_totals``) — to an append-only JSONL file on a fixed
interval.  The file reuses :class:`~repro.obs.recorder.RunRecorder`'s
format: a ``run_start`` header, one ``export`` record per tick, and a
closing ``summary``, all readable by :func:`~repro.obs.recorder.read_run`.

Shutdown is **drain-aware**: :meth:`close` stops the thread, then writes
one final snapshot before finalizing, so the telemetry produced between
the last tick and shutdown is never lost.  A source that raises does not
kill the exporter — the error is counted, recorded in that tick's record,
and the remaining sources still export.  A write that fails (a full disk)
closes the file and ends the thread; the error is kept in
:attr:`TelemetryExporter.write_error` and :meth:`close` still completes.
"""

from __future__ import annotations

import os
import threading
import time

from ..concurrency import WorkerPool, check_wait_seconds
from .metrics import MetricsRegistry
from .recorder import RunRecorder, jsonable

__all__ = ["TelemetryExporter"]


class TelemetryExporter:
    """Periodic JSONL snapshots of metrics (and friends), in the background.

    Parameters
    ----------
    path:
        JSONL output file (parent directories are created).
    registry:
        The metrics registry to snapshot each tick (``None`` skips the
        ``metrics`` field — sources may carry everything).
    interval_seconds:
        Tick period; the thread wakes early when closed.
    sources:
        Extra named snapshot callables, serialised with
        :func:`~repro.obs.recorder.jsonable` each tick.
    """

    def __init__(self, path: str | os.PathLike,
                 registry: MetricsRegistry | None = None,
                 interval_seconds: float = 5.0,
                 sources: dict | None = None,
                 run_id: str | None = None,
                 clock=time.monotonic):
        check_wait_seconds("interval_seconds", interval_seconds)
        self.interval_seconds = float(interval_seconds)
        self._registry = registry
        self._sources = dict(sources or {})
        self._clock = clock
        self._lock = threading.Lock()
        self._num_exports = 0
        self._num_errors = 0
        self._write_error: str | None = None
        self._closed = False
        self._recorder = RunRecorder(
            path, run_id=run_id,
            config={"interval_seconds": self.interval_seconds,
                    "sources": sorted(self._sources)})
        self._pool = WorkerPool(self._loop, 1, name="telemetry-export")
        self._pool.start()

    def _loop(self, stop_event) -> bool | None:
        if stop_event.wait(self.interval_seconds):
            return False  # closing: the final snapshot is written by close()
        self.export_once()
        return False if self.write_error is not None else None

    def export_once(self) -> dict:
        """Write one snapshot record now (also usable without the thread)."""
        record: dict = {"at": self._clock()}
        if self._registry is not None:
            record["metrics"] = self._registry.snapshot()
        errors = {}
        for name, source in self._sources.items():
            try:
                record[name] = jsonable(source())
            except Exception as error:  # keep exporting the healthy sources
                errors[name] = repr(error)
        if errors:
            record["source_errors"] = errors
        with self._lock:
            if self._closed or self._recorder.closed:
                return record  # raced with close() or a failed write
            record["sequence"] = self._num_exports
            try:
                self._recorder.record("export", **record)
            except OSError as error:
                self._drop_file(error)
                return record
            self._num_exports += 1
            self._num_errors += len(errors)
        return record

    def _drop_file(self, error: OSError) -> None:
        """Close a file that failed to write and keep its error (caller
        holds the lock)."""
        self._write_error = f"{type(error).__name__}: {error}"
        try:
            self._recorder.close()
        except OSError:
            pass  # the buffered tail is lost with the file

    @property
    def write_error(self) -> str | None:
        """The write error that closed the file, or ``None``."""
        with self._lock:
            return self._write_error

    @property
    def num_exports(self) -> int:
        with self._lock:
            return self._num_exports

    @property
    def path(self):
        return self._recorder.path

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop the thread, write a final snapshot, and finalize the file."""
        if self._closed:
            return
        self._pool.close(timeout)
        self.export_once()  # drain: capture everything since the last tick
        with self._lock:
            self._closed = True
            if self._recorder.closed:
                return
            try:
                self._recorder.finalize(num_exports=self._num_exports,
                                        num_source_errors=self._num_errors)
            except OSError as error:
                self._drop_file(error)

    def __enter__(self) -> "TelemetryExporter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
