"""Load generation from the benchmark's single load thread.

* **Open loop** (phase A): a seeded Poisson schedule.  Each request is timed
  from the instant it was *due*, not from when the generator got round to
  sending it, so a stall in the program shows up as latency on the
  requests it delayed; how late the generator itself ran is reported
  separately.
* **Waves** (phase B): a wave of requests sent at once, the next wave as
  soon as every request of the last one has completed.  The load thread
  stays blocked while a wave runs, so it never competes with the program
  for the GIL mid-wave, and the program always has a full queue to batch
  from; completions per second is its capacity.

A submission refused with ``QueueFullError`` counts as a failure and is
never retried (``repro.serve.replay_workload`` retries, which would hide
overload).  A workload that writes passes ``tick(now)``, which the
generator calls between sends at least every ``TICK_S``: that is how
rating bursts and online ingests share the load thread.  Without one the
generator sleeps straight to the next due instant.
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np

from repro.serve import QueueFullError

TICK_S = 0.02             # longest sleep between ``tick`` calls
DRAIN_TIMEOUT_S = 60.0    # after this a request still pending has timed out


def late_p99_ms(phases) -> float:
    """How late the generator sent, at p99, over the open-loop phases."""
    late = [r.sent - r.due for phase in phases if phase.name == "open"
            for r in phase.requests]
    return float(np.quantile(late, 0.99)) * 1e3 if late else 0.0


def poisson_arrivals(rate: float, duration: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets in ``[0, duration)`` of a Poisson process at ``rate``."""
    times = np.cumsum(rng.exponential(1.0 / rate, size=max(int(rate * duration), 1)))
    while times[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=len(times)))
        times = np.concatenate([times, times[-1] + more])
    return times[times < duration]


@dataclass
class Sent:
    """One request as the generator saw it."""

    index: int            # position in the workload's request stream
    due: float
    sent: float
    wave: int | None = None       # phase B wave; None in the open loop
    future: object = None
    done: float | None = None     # stamped by the future's done callback
    error: str | None = None


@dataclass
class Phase:
    name: str
    started: float
    requests: list[Sent] = field(default_factory=list)

    @property
    def ok(self) -> list[Sent]:
        return [r for r in self.requests if r.error is None]

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.requests)

    def latencies_ms(self) -> np.ndarray:
        return np.array([(r.done - r.due) * 1e3 for r in self.ok])

    def throughput(self) -> float:
        """Completions per second: the median over waves of a wave's
        completions over the time from its first send to its last
        completion, so a short stall moves one wave, not the estimate."""
        waves = defaultdict(list)
        for record in self.ok:
            waves[record.wave].append(record)
        return float(np.median([
            len(wave) / (max(r.done for r in wave) - min(r.sent for r in wave))
            for wave in waves.values()]))


class LoadGen:
    """Drives ``submit(index) -> Future`` from the calling thread."""

    def __init__(self, submit, tick=None):
        self.submit = submit
        self.tick = tick or (lambda now: None)
        # Without a tick there is nothing to wake up for between events.
        self.tick_seconds = TICK_S if tick is not None else None
        self.next_index = 0

    def _send(self, phase: Phase, due: float, wave=None) -> Sent:
        clock = time.perf_counter
        record = Sent(index=self.next_index, due=due, sent=clock(), wave=wave)
        self.next_index += 1
        phase.requests.append(record)
        try:
            record.future = self.submit(record.index)
        except QueueFullError:
            record.error = "shed"
            return record

        def stamp(_future, record=record):
            record.done = clock()

        record.future.add_done_callback(stamp)
        return record

    def _sleep_until(self, deadline: float) -> None:
        while (now := time.perf_counter()) < deadline:
            self.tick(now)
            remaining = deadline - time.perf_counter()
            if self.tick_seconds is not None:
                remaining = min(remaining, self.tick_seconds)
            time.sleep(max(0.0, remaining))

    def open_loop(self, arrivals: np.ndarray, duration: float) -> Phase:
        """Send at ``start + arrivals[k]``; the phase lasts ``duration``."""
        phase = Phase("open", started=time.perf_counter())
        for offset in arrivals:
            due = phase.started + float(offset)
            self._sleep_until(due)
            self._send(phase, due)
        self._sleep_until(phase.started + duration)
        self._drain(phase)
        return phase

    def waves(self, size: int, duration: float, max_requests: int,
              between=None) -> Phase:
        """Send waves of ``size`` requests, each once the last has fully
        completed, until ``duration`` elapses or ``max_requests`` were
        sent; ``tick`` and then ``between()`` run on the load thread
        between waves."""
        phase = Phase("closed", started=time.perf_counter())
        deadline = phase.started + duration
        wave = 0
        while (time.perf_counter() < deadline
               and len(phase.requests) < max_requests):
            sent = [self._send(phase, time.perf_counter(), wave)
                    for _ in range(min(size,
                                       max_requests - len(phase.requests)))]
            wait([r.future for r in sent if r.future is not None],
                 timeout=DRAIN_TIMEOUT_S)
            wave += 1
            self.tick(time.perf_counter())
            if between is not None:
                between()
        self._drain(phase)
        return phase

    def _drain(self, phase: Phase) -> None:
        """Wait for every future; mark errors and timeouts as failures."""
        clock = time.perf_counter
        limit = clock() + DRAIN_TIMEOUT_S
        for record in phase.requests:
            if record.future is None:
                continue
            while not record.future.done() and clock() < limit:
                self.tick(clock())
                wait([record.future], timeout=self.tick_seconds
                     or limit - clock())
            if not record.future.done():
                record.error = "timeout"
            elif record.future.exception() is not None:
                record.error = repr(record.future.exception())
            elif record.done is None:
                record.done = clock()
