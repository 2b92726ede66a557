"""Metrics registry: counters, gauges, and streaming histograms.

All instruments are bounded-memory.  :class:`Histogram` keeps log-spaced
buckets (geometric resolution ``growth``, ~5 % by default) rather than the
raw samples, so p50/p90/p99 come from bucket interpolation no matter how
many observations stream through — there is no unbounded buffer anywhere.

A process-wide default registry (:func:`get_registry`) serves the common
case; independent :class:`MetricsRegistry` instances can be created for
isolated runs (tests do this).
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. current learning rate)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming histogram over positive-ish values with log-spaced buckets.

    Values are binned by ``floor(log(v) / log(growth))``; each bucket spans
    a constant *ratio*, so quantile estimates carry a bounded relative
    error of ``growth - 1`` (~5 % by default).  Non-positive values land in
    a dedicated underflow bucket pinned at the observed minimum.  Exact
    ``count`` / ``sum`` / ``min`` / ``max`` are tracked alongside.
    """

    __slots__ = ("name", "growth", "_log_growth", "_buckets", "_underflow",
                 "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, growth: float = 1.05):
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self._underflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= 0.0:
                self._underflow += 1
            else:
                index = int(math.floor(math.log(value) / self._log_growth))
                self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            if q == 0.0:
                return self._min
            if q == 1.0:
                return self._max
            rank = q * self._count
            cumulative = self._underflow
            if rank <= cumulative:
                return self._min
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if rank <= cumulative:
                    # Geometric midpoint of the bucket, clamped to the
                    # exactly-tracked observed range.
                    mid = self.growth ** (index + 0.5)
                    return min(max(mid, self._min), self._max)
            return self._max

    def percentiles(self) -> dict[str, float]:
        return {"p50": self.quantile(0.50), "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}

    def num_buckets(self) -> int:
        return len(self._buckets) + (1 if self._underflow else 0)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram, in place.

        Both histograms must share the same bucket ``growth`` — merging is
        a lossless sum of bucket counts, so per-service or per-window
        histograms aggregate without losing bucket resolution.  Returns
        ``self`` so merges chain.
        """
        if not isinstance(other, Histogram):
            raise TypeError(f"cannot merge {type(other).__name__} into a Histogram")
        if other.growth != self.growth:
            raise ValueError(
                f"bucket growth mismatch: {self.growth} vs {other.growth}")
        with other._lock:
            buckets = dict(other._buckets)
            underflow = other._underflow
            count = other._count
            total = other._sum
            other_min, other_max = other._min, other._max
        if count == 0:
            return self
        with self._lock:
            for index, n in buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            self._underflow += underflow
            self._count += count
            self._sum += total
            if other_min < self._min:
                self._min = other_min
            if other_max > self._max:
                self._max = other_max
        return self

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
        out = {"type": "histogram", "count": count, "sum": total,
               "min": self.min, "max": self.max,
               "mean": total / count if count else 0.0}
        out.update(self.percentiles())
        return out


class MetricsRegistry:
    """Named instruments, created on first use and reused thereafter."""

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name, **kwargs)
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, growth: float = 1.05) -> Histogram:
        return self._get(name, Histogram, growth=growth)

    def instrument(self, name: str, factory):
        """Register a custom instrument (anything with ``snapshot()``).

        ``factory(name)`` is called once on first use; later calls return
        the existing instrument.  This is how the windowed instruments of
        :mod:`repro.obs.windows` join a registry's :meth:`snapshot`.
        """
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory(name)
            return instrument

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """JSON-able state of every instrument, keyed by name."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in sorted(instruments.items())}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
