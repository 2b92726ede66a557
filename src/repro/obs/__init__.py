"""``repro.obs`` — observability: spans, metrics, run logging, reports.

The telemetry layer of the reproduction.  Four pieces, all passive (they
never touch model, optimiser, or RNG state, so trajectories are
bit-identical with telemetry on or off):

* :mod:`~repro.obs.spans` — hierarchical wall-time profiling
  (``with obs.span("train_step/forward"): ...``), off by default and
  near-free when off.
* :mod:`~repro.obs.metrics` — a registry of counters, gauges, and
  bounded-memory streaming histograms (p50/p90/p99).
* :mod:`~repro.obs.recorder` / :mod:`~repro.obs.sinks` — structured JSONL
  run logs plus the trainer observer API (console, recorder, and metrics
  sinks).
* :mod:`~repro.obs.ophooks` — optional per-op timing over the
  ``nn.functional`` kernels, attributing kernel time to the enclosing
  span.
* :mod:`~repro.obs.report` — renders any of the above as ``results/``-style
  text tables.

The serve-tier plane adds four more, all equally passive:

* :mod:`~repro.obs.trace` — per-request trace ids and stage-attributed
  timings (queue wait → batch form → assemble → pack → forward →
  respond) in a bounded ring buffer, with an optional JSONL sink.
* :mod:`~repro.obs.windows` — rolling time-windowed counters/histograms
  so p50/p99/rates are reported over the last N seconds, not since boot.
* :mod:`~repro.obs.slo` — declarative SLO rules (p99 latency, shed rate,
  cache hit rate) evaluated into ok/warn/breach over burn-rate style
  short/long windows.
* :mod:`~repro.obs.export` — a drain-aware background exporter thread
  snapshotting a registry (plus health/trace sources) to JSONL.

See ``docs/observability.md`` for a walkthrough and overhead numbers.
"""

from . import export, ophooks, report, slo, trace, windows
from .export import TelemetryExporter
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .recorder import RunRecorder, jsonable, read_run
from .report import (
    render_metrics_table,
    render_run_report,
    render_slo_table,
    render_span_table,
    render_step_table,
    render_trace_table,
)
from .slo import (
    SLORule,
    SLOStatus,
    default_online_rules,
    default_serve_rules,
    evaluate_slos,
    worst_state,
)
from .trace import TRACE_STAGES, RequestTrace, Tracer
from .windows import WindowedCounter, WindowedHistogram
from .sinks import (
    ConsoleSink,
    FitSummary,
    MetricsSink,
    RecorderSink,
    StepEvent,
    TrainerObserver,
    ValidationEvent,
)
from .spans import (
    SpanStats,
    current_span_path,
    enable_profiling,
    profiling,
    profiling_enabled,
    record_span,
    reset_spans,
    span,
    span_totals,
)

__all__ = [
    # spans
    "span",
    "enable_profiling",
    "profiling_enabled",
    "profiling",
    "current_span_path",
    "record_span",
    "span_totals",
    "reset_spans",
    "SpanStats",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    # recorder
    "RunRecorder",
    "read_run",
    "jsonable",
    # observer API / sinks
    "TrainerObserver",
    "StepEvent",
    "ValidationEvent",
    "FitSummary",
    "ConsoleSink",
    "RecorderSink",
    "MetricsSink",
    # op hooks + reports
    "ophooks",
    "report",
    "render_run_report",
    "render_step_table",
    "render_span_table",
    "render_metrics_table",
    # serve-tier plane: traces, windows, SLOs, export
    "TRACE_STAGES",
    "RequestTrace",
    "Tracer",
    "WindowedCounter",
    "WindowedHistogram",
    "SLORule",
    "SLOStatus",
    "evaluate_slos",
    "worst_state",
    "default_serve_rules",
    "default_online_rules",
    "TelemetryExporter",
    "render_trace_table",
    "render_slo_table",
]
