"""Serving-layer façade over the shared concurrency primitives.

The queue/pool implementation lives in :mod:`repro.concurrency`; this
module binds it to the serving layer's policies and typed errors:

* **Backpressure by load shedding** — :meth:`BoundedQueue.put` never
  blocks.  A full queue raises :class:`~repro.serve.errors.QueueFullError`
  immediately, pushing the wait out to the client (which can retry) instead
  of letting unbounded work pile up inside the process.
* **Graceful shutdown** — :meth:`BoundedQueue.close` stops intake; workers
  keep draining until the queue is empty (``drain=True``) or the remaining
  items are handed back to the caller (``drain=False``) so their futures
  can be failed explicitly.  Nothing is ever silently dropped.
"""

from __future__ import annotations

from ..concurrency import BoundedQueue as _BoundedQueue
from ..concurrency import WorkerPool
from .errors import QueueFullError, ServiceClosedError

__all__ = ["BoundedQueue", "WorkerPool"]


class BoundedQueue(_BoundedQueue):
    """The shared bounded MPMC queue, raising the serving layer's errors."""

    def __init__(self, maxsize: int):
        super().__init__(maxsize, full_error=QueueFullError,
                         closed_error=ServiceClosedError)
