"""Shared worker-pool and background-thread primitives.

One :class:`WorkerPool` implementation runs the prediction service's
workers, the telemetry exporter and the online controller instead of
copies.

Background work yields the CPU to serving: a pool built with
``background=True`` runs its threads at the lowest CPU priority
(:func:`lower_thread_priority`), so a busy background thread only gets the
CPU the serving threads leave idle.
"""

from __future__ import annotations

import math
import os
import sys
import threading

__all__ = ["WorkerPool", "BACKGROUND_NICE", "lower_thread_priority",
           "check_wait_seconds"]

# The weakest nice value Linux schedules: a thread at 19 gets a CPU shared
# with a nice-0 thread for about 1.5% of the time.
BACKGROUND_NICE = 19


def lower_thread_priority() -> int | None:
    """Run the calling thread alone at the lowest CPU priority.

    On Linux a thread id is a valid ``PRIO_PROCESS`` target, so
    ``setpriority`` lowers this thread and leaves the rest of the process
    as it was; threads it starts later inherit the value.  Returns the
    nice value read back from the thread, or ``None`` when the priority
    was left unchanged: on any other platform, where a thread id names no
    scheduling target, or when the call raised :class:`OSError`.
    """
    if not sys.platform.startswith("linux"):
        return None
    thread_id = threading.get_native_id()
    try:
        os.setpriority(os.PRIO_PROCESS, thread_id, BACKGROUND_NICE)
        return os.getpriority(os.PRIO_PROCESS, thread_id)
    except OSError:
        return None


def check_wait_seconds(name: str, seconds: float) -> None:
    """Reject a loop interval a thread cannot wait on, before it starts.

    The interval becomes an ``Event.wait`` timeout in a background thread:
    an infinite or oversized one raises ``OverflowError`` there and kills
    the thread, NaN never waits at all, and zero or less spins.  Raises
    ``ValueError`` unless ``0 < seconds <= threading.TIMEOUT_MAX``.
    """
    if not (math.isfinite(seconds) and 0 < seconds <= threading.TIMEOUT_MAX):
        raise ValueError(f"{name} must be finite, > 0 and "
                         "<= threading.TIMEOUT_MAX")


class WorkerPool:
    """Named daemon threads running one loop function until told to stop.

    ``loop`` is called repeatedly as ``loop(stop_event)``; it returns
    ``False`` (or the stop event is set and the loop observes it) to exit.
    :meth:`close` sets the event and joins every thread — with a timeout,
    so shutdown can never hang forever on a stuck worker.

    With ``background=True`` each thread first lowers itself to the lowest
    CPU priority (:func:`lower_thread_priority`); :meth:`start` returns
    once every thread has tried, and :attr:`priorities` holds what each
    one read back.
    """

    def __init__(self, loop, num_workers: int = 1, name: str = "worker",
                 background: bool = False):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._loop = loop
        self._stop = threading.Event()
        self._background = background
        self._priorities: list[int | None] = [None] * num_workers
        self._lowered = threading.Semaphore(0)
        self._threads = [
            threading.Thread(target=self._run, args=(index,),
                             name=f"{name}-{index}", daemon=True)
            for index in range(num_workers)
        ]
        self._started = False

    def _run(self, index: int) -> None:
        if self._background:
            try:
                self._priorities[index] = lower_thread_priority()
            finally:
                self._lowered.release()
        while not self._stop.is_set():
            if self._loop(self._stop) is False:
                break

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for thread in self._threads:
            thread.start()
        if self._background:
            for _ in self._threads:
                self._lowered.acquire()

    @property
    def priorities(self) -> list[int | None]:
        """Per thread, the nice value a background pool lowered it to, or
        ``None`` where the priority was left unchanged."""
        return list(self._priorities)

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
