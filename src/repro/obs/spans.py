"""Hierarchical profiling spans with near-zero disabled cost.

A *span* is a named, timed region of code::

    with obs.span("train_step"):
        with obs.span("forward"):
            ...

Nested spans build slash-joined paths (``train_step/forward``) on a
thread-local stack, and every exit folds the span's wall time into a
process-wide aggregation table (count / total / min / max seconds per
path).  Profiling is **off by default**: :func:`span` then returns a
shared no-op context manager, so the cost of an instrumented call site is
one function call and one flag check — no allocation, no clock read.

The aggregation table is the single sink for all wall-time attribution;
:func:`repro.obs.report.render_span_table` renders it as a text table.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = [
    "span",
    "enable_profiling",
    "profiling_enabled",
    "profiling",
    "current_span_path",
    "record_span",
    "span_totals",
    "reset_spans",
    "SpanStats",
]

_ENABLED = False
_LOCAL = threading.local()
_LOCK = threading.Lock()
# path -> [count, total_seconds, min_seconds, max_seconds]
_TOTALS: dict[str, list[float]] = {}


@dataclass(frozen=True)
class SpanStats:
    """Immutable snapshot of one span path's aggregated wall time."""

    path: str
    count: int
    total_seconds: float
    min_seconds: float
    max_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def enable_profiling(enabled: bool = True) -> None:
    """Globally switch span timing on or off (off by default)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def profiling_enabled() -> bool:
    return _ENABLED


class profiling:
    """Context manager scoping :func:`enable_profiling` to a block."""

    def __init__(self, enabled: bool = True):
        self._enabled = enabled

    def __enter__(self):
        self._prev = _ENABLED
        enable_profiling(self._enabled)
        return self

    def __exit__(self, *exc):
        enable_profiling(self._prev)
        return False


def _stack() -> list[str]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_span_path() -> str:
    """Slash-joined path of the innermost open span ("" at top level)."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else ""


def record_span(path: str, seconds: float) -> None:
    """Fold one observation into the aggregation table."""
    with _LOCK:
        entry = _TOTALS.get(path)
        if entry is None:
            _TOTALS[path] = [1, seconds, seconds, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds
            if seconds < entry[2]:
                entry[2] = seconds
            if seconds > entry[3]:
                entry[3] = seconds


class _NullSpan:
    """Shared do-nothing span returned while profiling is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "path", "_start")

    def __init__(self, name: str):
        self.name = name
        self.path = ""
        self._start = 0.0

    def __enter__(self):
        stack = _stack()
        self.path = f"{stack[-1]}/{self.name}" if stack else self.name
        stack.append(self.path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] == self.path:
            stack.pop()
        record_span(self.path, elapsed)
        return False


def span(name: str):
    """Open a named profiling span (no-op unless profiling is enabled)."""
    if not _ENABLED:
        return _NULL_SPAN
    return _Span(name)


def span_totals() -> dict[str, SpanStats]:
    """Snapshot of the aggregation table, keyed by span path."""
    with _LOCK:
        return {
            path: SpanStats(path, int(e[0]), e[1], e[2], e[3])
            for path, e in _TOTALS.items()
        }


def reset_spans() -> None:
    """Clear all aggregated span statistics."""
    with _LOCK:
        _TOTALS.clear()
