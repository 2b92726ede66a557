"""Request micro-batching over one bounded deque.

A :class:`MicroBatcher` keeps every admitted, unserved request in one
deque of at most ``queue_size`` requests and coalesces them into batches
of up to ``max_batch_size``.  Admission sheds load: a full deque raises
:class:`~repro.serve.errors.QueueFullError` at once instead of blocking,
pushing the wait out to the client.  Batching is *work-conserving*: a
worker waits only for the first request, then takes every matching
request that is already queued and ships at once, so a lone request never
sits idle waiting for batch-mates.  Batches still fill under load, because
requests pile up while the worker is busy.  Batches are formed by
whichever worker thread asks next, under one lock, so each request lands
in exactly one batch.

Identical requests inside a batch — same user, same items, same supports —
are *coalesced* by :func:`group_requests`: the context is assembled and
scored once and the result fans out to every caller's future.  HIRE scores
an n × m context matrix in one forward pass, so requests for different
users stack into one batched forward downstream (see
:func:`repro.nn.inference.forward_inference_many`).

Batches are also shaped for the padded packer by a ``bucket_key``: each
batch holds requests of a single shape bucket (same rounded context
budget), so one downstream packed plan execution covers the whole batch.
Requests of *other* buckets keep their place in the deque — never dropped,
and still counted against ``queue_size`` — and the oldest of them leads
the very next batch.  A partially filled bucket ships as soon as no more
of its requests are queued.

Shutdown is drain-aware: :meth:`MicroBatcher.close` stops intake, and
workers keep taking batches until the deque is empty, at which point
:class:`~repro.serve.errors.ServiceClosedError` tells them to exit;
:meth:`MicroBatcher.drain` hands the rest back to fail fast instead.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from concurrent.futures import Future

import numpy as np

from .errors import QueueFullError, ServiceClosedError

__all__ = ["PredictRequest", "MicroBatcher", "group_requests"]


@dataclass
class PredictRequest:
    """One pending ``(user, item_ids)`` prediction with its result future.

    ``context_users`` / ``context_items`` optionally override the service's
    context budgets for this request (``None`` = service default); they are
    part of the coalescing key, since different budgets sample different
    contexts.

    The three timestamps are stamped by the batcher, **all from the
    batcher's own clock** (``MicroBatcher(clock=...)``): ``enqueued_at`` on
    :meth:`MicroBatcher.submit`, ``dequeued_at`` when a worker takes the
    request into a batch, and ``batch_formed_at`` when its batch ships.
    One clock for every stamp means the stage timings always agree —
    including under a fake clock in tests.  ``trace`` optionally carries a :class:`repro.obs.RequestTrace`
    through the pipeline.
    """

    user: int
    item_ids: np.ndarray
    support_items: np.ndarray
    context_users: int | None = None
    context_items: int | None = None
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    dequeued_at: float = 0.0
    batch_formed_at: float = 0.0
    trace: object = None
    # Graph snapshot pinned at admission — a
    # repro.serve.dataplane.GraphSnapshot, i.e. a (graph, candidate_users,
    # candidate_items, generation, epoch) NamedTuple.  A request always
    # executes against the graph it was validated under, so a concurrent
    # ``update_ratings`` can never turn an admitted request's query cells
    # observed mid-flight.
    graph_state: tuple | None = None

    @property
    def generation(self) -> int | None:
        return None if self.graph_state is None else self.graph_state[3]

    def key(self) -> tuple:
        """Coalescing identity: requests with equal keys share one result."""
        return (self.user, tuple(self.item_ids.tolist()),
                tuple(self.support_items.tolist()),
                self.context_users, self.context_items, self.generation)


def group_requests(batch: list[PredictRequest]
                   ) -> list[tuple[tuple, list[PredictRequest]]]:
    """Group a batch by request identity, preserving first-seen order."""
    groups: dict[tuple, list[PredictRequest]] = {}
    for request in batch:
        groups.setdefault(request.key(), []).append(request)
    return list(groups.items())


class MicroBatcher:
    """Coalesce queued requests into bounded, work-conserving batches.

    Every admitted, unserved request waits in one deque of at most
    ``queue_size`` requests.  ``bucket_key`` maps a request to a hashable
    shape bucket, and every batch is homogeneous in bucket: the oldest
    request fixes the batch's bucket, and same-bucket requests behind it
    fill the batch in arrival order.  Requests of other buckets keep their
    place, so they lead a later batch.  A batch ships once it is full or
    the deque holds no more of its bucket, so a request is never held
    waiting for bucket-mates.
    """

    def __init__(self, max_batch_size: int = 8, queue_size: int = 64,
                 clock=time.monotonic, *, bucket_key):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.max_batch_size = max_batch_size
        self.queue_size = queue_size
        self._clock = clock
        self.bucket_key = bucket_key
        self._requests: deque[PredictRequest] = deque()
        self._ready = threading.Condition()
        self._closed = False

    def submit(self, request: PredictRequest) -> None:
        """Enqueue a request without blocking.

        Raises :class:`~repro.serve.errors.QueueFullError` when
        ``queue_size`` requests already wait (load shedding) and
        :class:`~repro.serve.errors.ServiceClosedError` after
        :meth:`close`.  Stamps ``enqueued_at`` from the batcher's clock so
        queue-wait measurements share a timebase with the dequeue stamps.
        """
        with self._ready:
            if self._closed:
                raise ServiceClosedError("queue is closed")
            if len(self._requests) >= self.queue_size:
                raise QueueFullError(
                    f"queue full ({self.queue_size} pending); retry later")
            request.enqueued_at = self._clock()
            self._requests.append(request)
            self._ready.notify()

    def next_batch(self, timeout: float = 0.05) -> list[PredictRequest]:
        """Gather the next batch, or ``[]`` if nothing arrived in time.

        Blocks up to ``timeout`` for the first request, then takes every
        same-bucket request already queued without blocking again; it stops
        once ``max_batch_size`` requests are in hand.  Raises
        :class:`~repro.serve.errors.ServiceClosedError` once the batcher is
        closed and fully drained.
        """
        with self._ready:
            self._ready.wait_for(lambda: self._requests or self._closed,
                                 timeout)
            if not self._requests:
                if self._closed:
                    raise ServiceClosedError("queue is closed and drained")
                return []
            now = self._clock()
            first = self._requests.popleft()
            first.dequeued_at = now
            batch = [first]
            bucket = self.bucket_key(first)
            # Scan from the head: other buckets keep their place, so the
            # oldest of them leads the next batch.
            kept: deque[PredictRequest] = deque()
            while self._requests and len(batch) < self.max_batch_size:
                request = self._requests.popleft()
                if self.bucket_key(request) == bucket:
                    request.dequeued_at = now
                    batch.append(request)
                else:
                    kept.append(request)
            kept.extend(self._requests)
            self._requests = kept
            if self._requests:
                self._ready.notify()  # hand what is left to an idle worker
        formed_at = self._clock()
        for request in batch:
            request.batch_formed_at = formed_at
        return batch

    def close(self) -> None:
        """Stop intake and wake every waiting worker; queued requests stay
        for draining workers (or :meth:`drain`)."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def drain(self) -> list[PredictRequest]:
        """Remove and return every queued request (non-draining shutdown)."""
        with self._ready:
            requests = list(self._requests)
            self._requests.clear()
            return requests

    @property
    def depth(self) -> int:
        """Requests admitted and not yet taken into a batch."""
        with self._ready:
            return len(self._requests)
