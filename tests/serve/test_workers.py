"""WorkerPool lifecycle."""

import threading

import pytest

from repro.concurrency import WorkerPool


class TestWorkerPool:
    def test_runs_loop_until_false(self):
        calls = []

        def loop(stop):
            calls.append(1)
            return False if len(calls) >= 3 else None

        pool = WorkerPool(loop, num_workers=1)
        pool.start()
        pool.join(2.0)
        assert pool.alive_count() == 0
        assert len(calls) == 3

    def test_close_signals_stop(self):
        started = threading.Event()

        def loop(stop):
            started.set()
            stop.wait(0.01)

        pool = WorkerPool(loop, num_workers=2)
        pool.start()
        assert started.wait(2.0)
        pool.close(2.0)
        assert pool.alive_count() == 0
        assert pool.stopping

    def test_join_does_not_signal_stop(self):
        def loop(stop):
            return False

        pool = WorkerPool(loop, num_workers=1)
        pool.start()
        pool.join(2.0)
        assert not pool.stopping

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(lambda stop: False, num_workers=0)
