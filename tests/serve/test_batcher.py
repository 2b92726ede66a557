"""MicroBatcher coalescing, deadlines, bucketing, and close semantics."""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    MicroBatcher,
    PredictRequest,
    QueueFullError,
    ServiceClosedError,
    group_requests,
)


def make_request(user=1, items=(2, 3), supports=(7,), budgets=(None, None)):
    return PredictRequest(user=user,
                          item_ids=np.array(items, dtype=np.int64),
                          support_items=np.array(supports, dtype=np.int64),
                          context_users=budgets[0], context_items=budgets[1])


def budget_bucket(request):
    return (request.context_users, request.context_items)


def one_bucket(request):
    """Every request shares one bucket: batching without shape buckets."""
    return None


class TestGroupRequests:
    def test_identical_requests_coalesce(self):
        a, b = make_request(), make_request()
        groups = group_requests([a, b])
        assert len(groups) == 1
        assert groups[0][1] == [a, b]

    def test_different_items_stay_separate(self):
        a = make_request(items=(2, 3))
        b = make_request(items=(3, 2))  # order matters: different request
        groups = group_requests([a, b])
        assert len(groups) == 2

    def test_first_seen_order_preserved(self):
        a = make_request(user=5)
        b = make_request(user=1)
        groups = group_requests([a, b, make_request(user=5)])
        assert [g[1][0].user for g in groups] == [5, 1]


class TestMicroBatcher:
    def test_batch_respects_max_size(self):
        batcher = MicroBatcher(max_batch_size=2, bucket_key=one_bucket)
        for _ in range(3):
            batcher.submit(make_request())
        assert len(batcher.next_batch(0.1)) == 2
        assert len(batcher.next_batch(0.1)) == 1
        assert batcher.depth == 0

    def test_empty_queue_returns_empty_batch(self):
        batcher = MicroBatcher(bucket_key=one_bucket)
        assert batcher.next_batch(0.01) == []

    def test_fifo_order(self):
        batcher = MicroBatcher(max_batch_size=2, bucket_key=one_bucket)
        for user in range(5):
            batcher.submit(make_request(user=user))
        batches = [[r.user for r in batcher.next_batch(0.1)]
                   for _ in range(3)]
        assert batches == [[0, 1], [2, 3], [4]]

    def test_times_out_with_empty_batch(self):
        """An idle worker sleeps out its timeout instead of spinning, then
        gets an empty batch."""
        batcher = MicroBatcher(bucket_key=one_bucket)
        start = time.perf_counter()
        assert batcher.next_batch(0.05) == []
        assert time.perf_counter() - start >= 0.04

    def test_taking_a_batch_frees_admission(self):
        batcher = MicroBatcher(max_batch_size=2, queue_size=2,
                               bucket_key=one_bucket)
        batcher.submit(make_request(user=0))
        batcher.submit(make_request(user=1))
        with pytest.raises(QueueFullError):
            batcher.submit(make_request(user=2))
        assert [r.user for r in batcher.next_batch(0.1)] == [0, 1]
        batcher.submit(make_request(user=3))
        batcher.submit(make_request(user=4))
        assert batcher.depth == 2
        assert [r.user for r in batcher.next_batch(0.1)] == [3, 4]

    def test_zero_wait_takes_every_queued_request(self):
        batcher = MicroBatcher(max_batch_size=8, bucket_key=one_bucket)
        batcher.submit(make_request())
        batcher.submit(make_request())
        assert len(batcher.next_batch(0.1)) == 2
        assert batcher.depth == 0

    def test_default_window_never_blocks_after_the_first_pop(self):
        """Work-conserving: the worker waits only while it holds no request;
        once one is in hand it takes what is already queued, so a lone
        request ships without idling."""
        batcher = MicroBatcher(max_batch_size=8, bucket_key=one_bucket)
        timeouts = []
        real_wait = batcher._ready.wait

        def spy_wait(timeout=None):
            timeouts.append(timeout)
            return real_wait(timeout)

        batcher._ready.wait = spy_wait
        for user in range(3):
            batcher.submit(make_request(user=user))
        assert [r.user for r in batcher.next_batch(0.1)] == [0, 1, 2]
        batcher.submit(make_request(user=3))
        assert [r.user for r in batcher.next_batch(0.1)] == [3]
        assert timeouts == []
        # Nothing queued: the worker waits for the first request only, and
        # ships it the moment it arrives.
        late = threading.Timer(0.05, batcher.submit,
                               args=(make_request(user=4),))
        late.start()
        start = time.perf_counter()
        assert [r.user for r in batcher.next_batch(5.0)] == [4]
        assert time.perf_counter() - start < 2.5
        late.join(5.0)
        assert timeouts and all(0 < t <= 5.0 for t in timeouts)

    def test_close_then_drained_raises(self):
        batcher = MicroBatcher(max_batch_size=4, bucket_key=one_bucket)
        batcher.submit(make_request())
        batcher.close()
        assert len(batcher.next_batch(0.1)) == 1  # drains the queued request
        with pytest.raises(ServiceClosedError):
            batcher.next_batch(0.1)

    def test_drain_returns_pending(self):
        batcher = MicroBatcher(bucket_key=one_bucket)
        request = make_request()
        batcher.submit(request)
        batcher.close()
        assert batcher.drain() == [request]

    def test_drain_empties_queue(self):
        """Drain hands back every bucket's requests in arrival order; a
        closed, drained batcher then tells workers to exit at once."""
        batcher = MicroBatcher(bucket_key=budget_bucket)
        requests = [make_request(user=user, budgets=(budget, budget))
                    for user, budget in enumerate((8, 16, 8))]
        for request in requests:
            batcher.submit(request)
        assert batcher.drain() == requests
        assert batcher.depth == 0
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.next_batch(5.0)

    def test_close_drains_every_bucket_then_raises(self):
        batcher = MicroBatcher(max_batch_size=4, bucket_key=budget_bucket)
        for user, budget in enumerate((8, 16, 8, 32, 16)):
            batcher.submit(make_request(user=user, budgets=(budget, budget)))
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.submit(make_request())
        batches = [[r.user for r in batcher.next_batch(0.1)]
                   for _ in range(3)]
        assert batches == [[0, 2], [1, 4], [3]]
        with pytest.raises(ServiceClosedError):
            batcher.next_batch(0.1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0, bucket_key=one_bucket)

    def test_rejects_nonpositive_queue_size(self):
        with pytest.raises(ValueError):
            MicroBatcher(queue_size=0, bucket_key=one_bucket)

    def test_full_queue_sheds_without_blocking(self):
        batcher = MicroBatcher(queue_size=2, bucket_key=one_bucket)
        batcher.submit(make_request())
        batcher.submit(make_request())
        start = time.perf_counter()
        with pytest.raises(QueueFullError):
            batcher.submit(make_request())
        assert time.perf_counter() - start < 0.5  # shed, not blocked
        assert batcher.depth == 2

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(bucket_key=one_bucket)
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.submit(make_request())

    def test_close_wakes_a_blocked_next_batch(self):
        batcher = MicroBatcher(bucket_key=one_bucket)
        errors = []

        def worker():
            try:
                batcher.next_batch(5.0)
            except ServiceClosedError as error:
                errors.append(error)

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)
        batcher.close()
        thread.join(2.0)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_budget_overrides_break_coalescing(self):
        a = make_request(budgets=(16, 16))
        b = make_request(budgets=(None, None))
        assert len(group_requests([a, b])) == 2  # different contexts


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestClockStamps:
    """All request timestamps come from the batcher's one injectable clock,
    so stamps and deadline flushes agree — the mixed perf_counter/monotonic
    clocks bug made latency histograms lie under a fake clock."""

    def test_submit_stamps_enqueued_at_from_batcher_clock(self):
        clock = FakeClock(now=500.0)
        batcher = MicroBatcher(clock=clock, bucket_key=one_bucket)
        request = make_request()
        assert request.enqueued_at != 500.0  # default stamp, pre-submit
        batcher.submit(request)
        assert request.enqueued_at == 500.0

    def test_refused_request_is_not_stamped(self):
        clock = FakeClock(now=500.0)
        batcher = MicroBatcher(queue_size=1, clock=clock,
                               bucket_key=one_bucket)
        batcher.submit(make_request())
        shed, late = make_request(), make_request()
        with pytest.raises(QueueFullError):
            batcher.submit(shed)
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.submit(late)
        assert 500.0 not in (shed.enqueued_at, late.enqueued_at)
        assert batcher.depth == 1

    def test_dequeue_and_batch_form_stamps(self):
        clock = FakeClock(now=10.0)
        batcher = MicroBatcher(max_batch_size=2,
                               clock=clock, bucket_key=one_bucket)
        request = make_request()
        batcher.submit(request)
        clock.advance(3.0)
        (got,) = batcher.next_batch(0.1)
        assert got is request
        assert got.enqueued_at == 10.0
        assert got.dequeued_at == 13.0
        assert got.batch_formed_at == 13.0

    def test_queue_wait_measurable_under_fake_clock(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=2,
                               clock=clock, bucket_key=one_bucket)
        early = make_request(user=1)
        batcher.submit(early)
        clock.advance(5.0)
        late = make_request(user=2)
        batcher.submit(late)
        batch = batcher.next_batch(0.1)
        waits = {r.user: r.dequeued_at - r.enqueued_at for r in batch}
        assert waits[1] == 5.0
        assert waits[2] == 0.0

    def test_every_batch_member_shares_batch_formed_at(self):
        batcher = MicroBatcher(max_batch_size=4, bucket_key=one_bucket)
        for user in range(3):
            batcher.submit(make_request(user=user))
        batch = batcher.next_batch(0.1)
        assert len(batch) == 3
        formed = {r.batch_formed_at for r in batch}
        assert len(formed) == 1
        for r in batch:
            assert r.enqueued_at <= r.dequeued_at <= r.batch_formed_at

    def test_parked_request_is_restamped_on_final_pop(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=2,
                               clock=clock, bucket_key=budget_bucket)
        a = make_request(budgets=(8, 8))
        b = make_request(budgets=(16, 16))
        batcher.submit(a)
        batcher.submit(b)
        first = batcher.next_batch(0.1)
        assert [r.context_users for r in first] == [8]
        clock.advance(2.0)
        second = batcher.next_batch(0.1)
        assert second == [b]
        # The park time counts as queue wait: dequeued at the final pop.
        assert b.dequeued_at == clock.now
        assert b.dequeued_at - b.enqueued_at == 2.0


class TestBucketedBatcher:
    def test_batches_are_bucket_homogeneous(self):
        batcher = MicroBatcher(max_batch_size=8, bucket_key=budget_bucket)
        small = [make_request(user=u, budgets=(16, 16)) for u in range(2)]
        large = [make_request(user=u, budgets=(32, 32)) for u in range(2)]
        for request in (small[0], large[0], small[1], large[1]):
            batcher.submit(request)
        first = batcher.next_batch(0.1)
        second = batcher.next_batch(0.1)
        assert [r.user for r in first] == [0, 1]
        assert {budget_bucket(r) for r in first} == {(16, 16)}
        assert {budget_bucket(r) for r in second} == {(32, 32)}
        assert batcher.depth == 0

    def test_parked_requests_lead_the_next_batch(self):
        batcher = MicroBatcher(max_batch_size=8, bucket_key=budget_bucket)
        batcher.submit(make_request(user=0, budgets=(16, 16)))
        batcher.submit(make_request(user=1, budgets=(32, 32)))
        batcher.next_batch(0.1)  # ships bucket (16, 16), parks user 1
        assert batcher.depth == 1
        batcher.submit(make_request(user=2, budgets=(32, 32)))
        batch = batcher.next_batch(0.1)
        assert [r.user for r in batch] == [1, 2]

    def test_full_batch_leaves_the_rest_in_arrival_order(self):
        """A batch that fills stops its scan: same-bucket requests behind
        it wait their turn, and the oldest leftover of any bucket leads."""
        batcher = MicroBatcher(max_batch_size=2, bucket_key=budget_bucket)
        for user, budget in enumerate((8, 16, 8, 8, 16)):
            batcher.submit(make_request(user=user, budgets=(budget, budget)))
        assert [r.user for r in batcher.next_batch(0.1)] == [0, 2]
        assert batcher.depth == 3
        assert [r.user for r in batcher.next_batch(0.1)] == [1, 4]
        assert [r.user for r in batcher.next_batch(0.1)] == [3]
        assert batcher.depth == 0

    def test_deadline_flushes_partial_bucket_with_bounded_latency(self):
        """A lone request in its bucket ships at once — it is never held
        hostage waiting for bucket-mates."""
        batcher = MicroBatcher(max_batch_size=8, bucket_key=budget_bucket)
        batcher.submit(make_request(budgets=(16, 16)))
        start = time.perf_counter()
        batch = batcher.next_batch(0.5)
        elapsed = time.perf_counter() - start
        assert len(batch) == 1
        assert elapsed < 0.25  # slack, not the full timeout

    def test_depth_and_drain_include_parked_requests(self):
        batcher = MicroBatcher(max_batch_size=2, bucket_key=budget_bucket)
        keep = make_request(user=0, budgets=(16, 16))
        parked = make_request(user=1, budgets=(32, 32))
        batcher.submit(keep)
        batcher.submit(parked)
        assert batcher.next_batch(0.1) == [keep]
        assert batcher.depth == 1
        batcher.close()
        assert batcher.drain() == [parked]
        assert batcher.depth == 0

    def test_parked_request_survives_close(self):
        batcher = MicroBatcher(max_batch_size=2, bucket_key=budget_bucket)
        batcher.submit(make_request(user=0, budgets=(16, 16)))
        batcher.submit(make_request(user=1, budgets=(32, 32)))
        batcher.next_batch(0.1)  # parks user 1
        batcher.close()
        batch = batcher.next_batch(0.1)  # drained queue, parked remains
        assert [r.user for r in batch] == [1]
        with pytest.raises(ServiceClosedError):
            batcher.next_batch(0.1)

    def test_queue_size_bounds_waiting_requests_of_every_bucket(self):
        """Requests left behind by a batch of another bucket still count
        against ``queue_size``: at most that many ever wait."""
        batcher = MicroBatcher(max_batch_size=8, queue_size=4,
                               bucket_key=budget_bucket)
        for budget in (8, 12, 16, 12):
            batcher.submit(make_request(budgets=(budget, budget)))
        assert [r.context_users for r in batcher.next_batch(0.1)] == [8]
        assert batcher.depth == 3
        batcher.submit(make_request(budgets=(8, 8)))
        with pytest.raises(QueueFullError):
            batcher.submit(make_request(budgets=(8, 8)))
        assert batcher.depth == 4
        assert [r.context_users for r in batcher.next_batch(0.1)] == [12, 12]


class TestConcurrentBatcher:
    QUEUE_SIZE = 8
    PRODUCERS = 4
    PER_PRODUCER = 60

    def test_producers_and_consumers_share_one_bounded_queue(self):
        """Four producers against two consumers, mixed buckets: every
        admitted request ships in exactly one bucket-homogeneous batch, and
        the queue never holds more than ``queue_size`` requests."""
        batcher = MicroBatcher(max_batch_size=4, queue_size=self.QUEUE_SIZE,
                               bucket_key=budget_bucket)
        admitted, batches, depths = [], [], []
        lock = threading.Lock()

        def produce(index):
            for number in range(self.PER_PRODUCER):
                budget = (8, 12, 16)[(index + number) % 3]
                request = make_request(user=index * 1000 + number,
                                       budgets=(budget, budget))
                while True:
                    try:
                        batcher.submit(request)
                        break
                    except QueueFullError:
                        time.sleep(0.0005)
                    finally:
                        depths.append(batcher.depth)
                with lock:
                    admitted.append(request)

        def consume():
            while True:
                try:
                    batch = batcher.next_batch(0.01)
                except ServiceClosedError:
                    return
                depths.append(batcher.depth)
                if batch:
                    with lock:
                        batches.append(batch)

        producers = [threading.Thread(target=produce, args=(index,))
                     for index in range(self.PRODUCERS)]
        consumers = [threading.Thread(target=consume) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in consumers + producers:
                thread.start()
            for thread in producers:
                thread.join(30)
            batcher.close()
            for thread in consumers:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in producers + consumers)

        served = [id(request) for batch in batches for request in batch]
        assert len(served) == len(set(served))
        assert sorted(served) == sorted(id(request) for request in admitted)
        assert len(admitted) == self.PRODUCERS * self.PER_PRODUCER
        for batch in batches:
            assert len({budget_bucket(request) for request in batch}) == 1
        assert max(depths) <= self.QUEUE_SIZE
        assert batcher.depth == 0

    def test_close_under_load_serves_every_admitted_request(self):
        """Closing while producers still submit: each request is either
        refused with ServiceClosedError or shipped in exactly one batch —
        none is admitted and then lost."""
        batcher = MicroBatcher(max_batch_size=4, queue_size=self.QUEUE_SIZE,
                               bucket_key=budget_bucket)
        admitted, refused, batches = [], [], []
        lock = threading.Lock()
        started = threading.Event()

        def produce(index):
            for number in itertools.count():
                budget = (8, 12, 16)[(index + number) % 3]
                request = make_request(user=index * 1000 + number,
                                       budgets=(budget, budget))
                try:
                    batcher.submit(request)
                except QueueFullError:
                    time.sleep(0.0005)
                    continue
                except ServiceClosedError:
                    with lock:
                        refused.append(request)
                    return
                started.set()
                with lock:
                    admitted.append(request)

        def consume():
            while True:
                try:
                    batch = batcher.next_batch(0.01)
                except ServiceClosedError:
                    return
                if batch:
                    with lock:
                        batches.append(batch)

        producers = [threading.Thread(target=produce, args=(index,))
                     for index in range(self.PRODUCERS)]
        consumers = [threading.Thread(target=consume) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in consumers + producers:
                thread.start()
            assert started.wait(30)
            batcher.close()
            for thread in producers + consumers:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in producers + consumers)

        assert admitted and len(refused) == self.PRODUCERS
        served = [id(request) for batch in batches for request in batch]
        assert len(served) == len(set(served))
        assert sorted(served) == sorted(id(request) for request in admitted)
        assert batcher.depth == 0
