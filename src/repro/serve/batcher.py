"""Request micro-batching over the bounded queue.

A :class:`MicroBatcher` coalesces pending requests into batches of up to
``max_batch_size``, waiting at most ``max_wait_seconds`` after the first
request before dispatching — the classic latency/throughput knob.  Batches
are formed by whichever worker thread asks next; each request lands in
exactly one batch (queue pops are atomic).

Identical requests inside a batch — same user, same items, same supports —
are *coalesced* by :func:`group_requests`: the context is assembled and
scored once and the result fans out to every caller's future.  HIRE scores
an n × m context matrix in one forward pass, so requests for different
users stack into one batched forward downstream (see
:func:`repro.nn.inference.forward_inference_many`).

When a ``bucket_key`` is configured, batches are additionally shaped for
the padded packer: each batch holds requests of a single shape bucket
(same rounded context budget), gathered bucket-first so one downstream
packed plan execution covers the whole batch.  Requests of *other* buckets
seen while gathering are parked in a pending buffer — never dropped — and
lead the very next batch; a deadline flushes a partially filled bucket
rather than waiting for exact coalescing, bounding any request's wait to
roughly two ``max_wait_seconds`` windows.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from concurrent.futures import Future

import numpy as np

from .errors import ServiceClosedError
from .workers import BoundedQueue

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
    :meth:`MicroBatcher.submit`, ``dequeued_at`` when a worker pops the
    request (re-stamped if the request is parked and re-popped), and
    ``batch_formed_at`` when its batch ships.  One clock for stamps and
    deadlines means latency histograms and deadline flushes always agree —
    including under a fake clock in tests.  ``trace`` optionally carries a
    :class:`repro.obs.RequestTrace` through the pipeline.
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
    """Coalesce queued requests into bounded, deadline-limited batches.

    With ``bucket_key`` (a callable mapping a request to a hashable shape
    bucket), every batch is homogeneous in bucket: the first request fixes
    the batch's bucket, same-bucket requests fill it, and other-bucket
    requests are parked in an internal pending buffer that leads the next
    batch.  The deadline flushes partially filled buckets — a request is
    never held past its batch's ``max_wait_seconds`` window waiting for
    bucket-mates, and a parked request starts its own window as soon as a
    worker asks again.
    """

    def __init__(self, max_batch_size: int = 8, max_wait_seconds: float = 0.002,
                 queue_size: int = 64, clock=time.monotonic, bucket_key=None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be >= 0")
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.queue = BoundedQueue(queue_size)
        self._clock = clock
        self.bucket_key = bucket_key
        self._pending: deque[PredictRequest] = deque()
        self._pending_lock = threading.Lock()

    def submit(self, request: PredictRequest) -> None:
        """Enqueue a request (non-blocking; sheds load when full).

        Stamps ``enqueued_at`` from the batcher's clock so queue-wait
        measurements share a timebase with the gather deadline.
        """
        request.enqueued_at = self._clock()
        self.queue.put(request)

    def next_batch(self, timeout: float = 0.05) -> list[PredictRequest]:
        """Gather the next batch, or ``[]`` if nothing arrived in time.

        Blocks up to ``timeout`` for the first request, then keeps
        gathering until ``max_batch_size`` requests are in hand or
        ``max_wait_seconds`` has elapsed since the first one.  Raises
        :class:`~repro.serve.errors.ServiceClosedError` once the queue is
        closed and fully drained (and no requests are parked).
        """
        first = self._pop_pending()
        if first is None:
            try:
                first = self.queue.get(timeout)
            except ServiceClosedError:
                first = self._pop_pending()  # parked after a racing close
                if first is None:
                    raise
            if first is None:
                return []
            first.dequeued_at = self._clock()
        if self.bucket_key is None:
            return self._gather(first, lambda request: True)
        bucket = self.bucket_key(first)
        return self._gather(first,
                            lambda request: self.bucket_key(request) == bucket)

    def _gather(self, first: PredictRequest, accept) -> list[PredictRequest]:
        batch = [first]
        now = self._clock()
        deadline = now + self.max_wait_seconds
        # Parked requests first: they have been waiting the longest.
        with self._pending_lock:
            kept: deque[PredictRequest] = deque()
            while self._pending and len(batch) < self.max_batch_size:
                request = self._pending.popleft()
                if accept(request):
                    request.dequeued_at = now
                    batch.append(request)
                else:
                    kept.append(request)
            kept.extend(self._pending)
            self._pending = kept
        while len(batch) < self.max_batch_size:
            remaining = deadline - self._clock()
            if remaining <= 0:
                break
            try:
                request = self.queue.get(remaining)
            except ServiceClosedError:
                break  # closed-and-drained: ship what we have
            if request is None:
                break
            request.dequeued_at = self._clock()
            if accept(request):
                batch.append(request)
            else:
                # Parked: dequeued_at is re-stamped at the final pop, so
                # the enqueue stage spans the park time too.
                with self._pending_lock:
                    self._pending.append(request)
        formed_at = self._clock()
        for request in batch:
            request.batch_formed_at = formed_at
        return batch

    def _pop_pending(self) -> PredictRequest | None:
        with self._pending_lock:
            if not self._pending:
                return None
            request = self._pending.popleft()
            request.dequeued_at = self._clock()
            return request

    def close(self) -> None:
        self.queue.close()

    def drain(self) -> list[PredictRequest]:
        """Remove and return every queued request (non-draining shutdown)."""
        with self._pending_lock:
            parked = list(self._pending)
            self._pending.clear()
        return parked + self.queue.drain()

    @property
    def depth(self) -> int:
        with self._pending_lock:
            parked = len(self._pending)
        return parked + len(self.queue)
