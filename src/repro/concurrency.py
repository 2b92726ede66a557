"""Shared bounded-queue and worker-pool primitives.

Originally written for the serving layer (``repro.serve.workers``), now
shared by the prediction service, the telemetry exporter and the online
controller so they run on one implementation instead of copies.

Backpressure is by load shedding: :meth:`BoundedQueue.put` never blocks.
A full queue raises the configured *full* error immediately, pushing the
wait out to the client (which can retry) instead of letting unbounded work
pile up inside the process.

Shutdown is drain-aware: :meth:`BoundedQueue.close` stops intake; getters
keep draining until the queue is empty, at which point the configured
*closed* error signals workers to exit.  Nothing is ever silently dropped.

The error types are injectable so that subsystem façades can surface their
own exception hierarchies (``repro.serve`` raises its typed
``QueueFullError`` / ``ServiceClosedError``) while sharing this code.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["QueueFullError", "QueueClosedError", "BoundedQueue", "WorkerPool"]


class QueueFullError(RuntimeError):
    """Default *full* error: a non-blocking put found the queue at capacity."""


class QueueClosedError(RuntimeError):
    """Default *closed* error: the queue no longer accepts or holds work."""


class BoundedQueue:
    """A bounded MPMC queue with non-blocking put and timed get."""

    def __init__(self, maxsize: int, *,
                 full_error: type[Exception] = QueueFullError,
                 closed_error: type[Exception] = QueueClosedError):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._full_error = full_error
        self._closed_error = closed_error
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def put(self, item) -> None:
        """Enqueue without blocking; shed load when full.

        Raises the configured *full* error when the queue is at capacity
        and the *closed* error after :meth:`close`.
        """
        with self._lock:
            if self._closed:
                raise self._closed_error("queue is closed")
            if len(self._items) >= self.maxsize:
                raise self._full_error(
                    f"queue full ({self.maxsize} pending); retry later")
            self._items.append(item)
            self._not_empty.notify()

    def get(self, timeout: float):
        """Dequeue one item, waiting up to ``timeout`` seconds.

        Returns the item, or ``None`` on timeout.  Raises the configured
        *closed* error once the queue is closed *and* empty — the signal
        for a draining worker to exit.
        """
        with self._not_empty:
            if not self._items:
                if self._closed:
                    raise self._closed_error("queue is closed and drained")
                self._not_empty.wait(timeout)
            if self._items:
                return self._items.popleft()
            if self._closed:
                raise self._closed_error("queue is closed and drained")
            return None

    def close(self) -> list:
        """Stop intake and wake all waiters; returns the items still queued.

        The pending items stay in the queue for draining workers; the
        returned list is a snapshot the caller may use to fail fast instead
        (after :meth:`drain`).
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            return list(self._items)

    def drain(self) -> list:
        """Atomically remove and return every queued item."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._not_empty.notify_all()
            return items

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class WorkerPool:
    """Named daemon threads running one loop function until told to stop.

    ``loop`` is called repeatedly as ``loop(stop_event)``; it returns
    ``False`` (or the stop event is set and the loop observes it) to exit.
    :meth:`close` sets the event and joins every thread — with a timeout,
    so shutdown can never hang forever on a stuck worker.
    """

    def __init__(self, loop, num_workers: int = 1, name: str = "worker"):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._loop = loop
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}-{index}", daemon=True)
            for index in range(num_workers)
        ]
        self._started = False

    def _run(self) -> None:
        while not self._stop.is_set():
            if self._loop(self._stop) is False:
                break

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for thread in self._threads:
            thread.start()

    def join(self, timeout: float | None = None) -> None:
        """Wait for workers to exit on their own (e.g. a drained queue)
        WITHOUT signalling them to stop — the draining-shutdown path."""
        if not self._started:
            return
        for thread in self._threads:
            thread.join(timeout)

    def close(self, timeout: float | None = 10.0) -> None:
        """Signal every worker to stop and join them (bounded wait)."""
        self._stop.set()
        if not self._started:
            return
        for thread in self._threads:
            thread.join(timeout)

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def alive_count(self) -> int:
        return sum(thread.is_alive() for thread in self._threads)

    def __len__(self) -> int:
        return len(self._threads)
