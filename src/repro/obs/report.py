"""Render telemetry (run JSONL files, span totals, metrics) as text tables.

The output follows the fixed-width ``" | "``-joined column style of the
paper tables in ``results/`` (see :mod:`repro.experiments.tables`), so run
reports drop straight into the same artifact directory.
"""

from __future__ import annotations

import os

from .metrics import MetricsRegistry, get_registry
from .recorder import read_run
from .spans import SpanStats, span_totals

__all__ = [
    "render_run_report",
    "render_step_table",
    "render_span_table",
    "render_metrics_table",
    "render_trace_table",
    "render_slo_table",
]


def _thin(rows: list[dict], max_rows: int) -> list[dict]:
    """Evenly subsample ``rows`` down to ``max_rows`` (keeping the last)."""
    if len(rows) <= max_rows:
        return rows
    stride = (len(rows) - 1) / (max_rows - 1)
    picked = [rows[round(i * stride)] for i in range(max_rows - 1)]
    return picked + [rows[-1]]


def render_step_table(records: list[dict], max_rows: int = 24) -> str:
    """Per-step trajectory table (loss / grad norm / LR / timing)."""
    steps = [r for r in records if r.get("type") == "step"]
    if not steps:
        return "(no step records)"
    header = ["Step", "Loss", "|grad|", "LR", "ms/step", "Masked"]
    lines = [" | ".join(f"{h:>10s}" for h in header)]
    lines.append("-" * len(lines[0]))
    for r in _thin(steps, max_rows):
        lines.append(" | ".join([
            f"{r.get('step', 0):>10d}",
            f"{r.get('loss', float('nan')):>10.4f}",
            f"{r.get('grad_norm', float('nan')):>10.3f}",
            f"{r.get('lr', float('nan')):>10.2e}",
            f"{r.get('step_seconds', 0.0) * 1e3:>10.1f}",
            f"{r.get('masked_cells', 0):>10d}",
        ]))
    if len(steps) > max_rows:
        lines.append(f"({len(steps)} steps total; showing {max_rows})")
    return "\n".join(lines)


def render_run_report(run: str | os.PathLike | list[dict],
                      max_rows: int = 24) -> str:
    """Full text report for one run: header, step table, summary."""
    records = run if isinstance(run, list) else read_run(run)
    if not records:
        return "(empty run)"
    lines: list[str] = []
    start = next((r for r in records if r.get("type") == "run_start"), None)
    if start is not None:
        lines.append(f"run {start.get('run_id', '?')}")
        config = start.get("config")
        if isinstance(config, dict):
            knobs = ", ".join(f"{k}={v}" for k, v in sorted(config.items())
                              if isinstance(v, (int, float, str, bool)))
            if knobs:
                lines.append(f"config: {knobs}")
        lines.append("")
    lines.append(render_step_table(records, max_rows=max_rows))
    summary = next((r for r in records if r.get("type") == "summary"), None)
    if summary is not None:
        lines.append("")
        parts = []
        if "steps_run" in summary:
            parts.append(f"{summary['steps_run']}/{summary.get('total_steps', '?')} steps")
        if summary.get("final_loss") is not None:
            parts.append(f"final loss {summary['final_loss']:.4f}")
        if summary.get("wall_seconds") is not None:
            parts.append(f"{summary['wall_seconds']:.2f}s")
        if summary.get("steps_per_second") is not None:
            parts.append(f"{summary['steps_per_second']:.2f} steps/s")
        if summary.get("aborted"):
            parts.append(f"ABORTED ({summary.get('error')})")
        lines.append("summary: " + "  ".join(parts) if parts else "summary: (empty)")
    return "\n".join(lines)


def render_span_table(totals: dict[str, SpanStats] | None = None,
                      min_total_seconds: float = 0.0) -> str:
    """Aggregated span wall-times, one row per path, children indented."""
    totals = span_totals() if totals is None else totals
    rows = [s for s in totals.values() if s.total_seconds >= min_total_seconds]
    if not rows:
        return "(no spans recorded)"
    rows.sort(key=lambda s: s.path)
    name_width = max(24, max(len(s.path) for s in rows) + 2)
    header = (f"{'Span':<{name_width}s} | {'Count':>8s} | {'Total s':>10s}"
              f" | {'Mean ms':>10s} | {'Min ms':>10s} | {'Max ms':>10s}")
    lines = [header, "-" * len(header)]
    for s in rows:
        depth = s.path.count("/")
        label = "  " * depth + s.path.rsplit("/", 1)[-1]
        lines.append(
            f"{label:<{name_width}s} | {s.count:>8d} | {s.total_seconds:>10.3f}"
            f" | {s.mean_seconds * 1e3:>10.2f} | {s.min_seconds * 1e3:>10.2f}"
            f" | {s.max_seconds * 1e3:>10.2f}"
        )
    return "\n".join(lines)


def render_metrics_table(registry: MetricsRegistry | None = None) -> str:
    """Every instrument in a registry, one row per metric.

    Windowed instruments (:mod:`repro.obs.windows`) render like their
    cumulative counterparts — a windowed histogram shows its in-window
    count/quantiles, a windowed counter its in-window total — with the
    kind column marking the window (``w-counter`` / ``w-histogram``).
    """
    registry = registry if registry is not None else get_registry()
    snapshot = registry.snapshot()
    if not snapshot:
        return "(no metrics recorded)"
    kinds = {"windowed_counter": "w-counter",
             "windowed_histogram": "w-histogram"}
    name_width = max(24, max(len(n) for n in snapshot) + 2)
    kind_width = max(9, max(len(kinds.get(s["type"], s["type"]))
                            for s in snapshot.values()))
    header = (f"{'Metric':<{name_width}s} | {'Kind':>{kind_width}s}"
              f" | {'Value/Count':>12s}"
              f" | {'Mean':>10s} | {'p50':>10s} | {'p90':>10s} | {'p99':>10s}")
    lines = [header, "-" * len(header)]
    for name, snap in snapshot.items():
        kind = kinds.get(snap["type"], snap["type"])
        if snap["type"] in ("histogram", "windowed_histogram"):
            lines.append(
                f"{name:<{name_width}s} | {kind:>{kind_width}s}"
                f" | {snap['count']:>12d}"
                f" | {snap['mean']:>10.4g} | {snap['p50']:>10.4g}"
                f" | {snap['p90']:>10.4g} | {snap['p99']:>10.4g}"
            )
        else:
            value = (snap["total"] if snap["type"] == "windowed_counter"
                     else snap["value"])
            lines.append(
                f"{name:<{name_width}s} | {kind:>{kind_width}s}"
                f" | {value:>12.6g}"
                f" | {'-':>10s} | {'-':>10s} | {'-':>10s} | {'-':>10s}"
            )
    return "\n".join(lines)


def render_trace_table(stage_totals: dict[str, dict]) -> str:
    """Per-stage latency attribution from a tracer's buffered traces.

    One row per pipeline stage (plus the ``total`` pseudo-stage), with
    each stage's share of total traced time — the serve tier's "where does
    the time go" table.  Accepts :meth:`repro.obs.Tracer.stage_totals`
    output.
    """
    rows = [(stage, stats) for stage, stats in stage_totals.items()
            if stats.get("count")]
    if not rows:
        return "(no traces recorded)"
    total_seconds = sum(stats["total_seconds"] for stage, stats in rows
                        if stage != "total") or 1.0
    header = (f"{'Stage':<12s} | {'Count':>8s} | {'Total s':>10s}"
              f" | {'Mean ms':>10s} | {'Max ms':>10s} | {'Share':>7s}")
    lines = [header, "-" * len(header)]
    for stage, stats in rows:
        share = ("" if stage == "total"
                 else f"{stats['total_seconds'] / total_seconds * 100:6.1f}%")
        lines.append(
            f"{stage:<12s} | {stats['count']:>8d}"
            f" | {stats['total_seconds']:>10.3f}"
            f" | {stats['mean_seconds'] * 1e3:>10.2f}"
            f" | {stats['max_seconds'] * 1e3:>10.2f} | {share:>7s}"
        )
    return "\n".join(lines)


def render_slo_table(statuses) -> str:
    """SLO rule states, one row per rule (short vs long window values).

    Accepts :class:`repro.obs.SLOStatus` objects or their ``snapshot()``
    dicts — e.g. ``health()["slos"]`` straight from a service.
    """
    snaps = [s.snapshot() if hasattr(s, "snapshot") else s for s in statuses]
    if not snaps:
        return "(no slo rules)"
    name_width = max(16, max(len(s["name"]) for s in snaps) + 2)

    def fmt(value):
        return "-" if value is None else f"{value:.4g}"

    header = (f"{'SLO':<{name_width}s} | {'State':>8s} | {'Short':>10s}"
              f" | {'Long':>10s} | {'Threshold':>10s}")
    lines = [header, "-" * len(header)]
    for snap in snaps:
        bound = ("<= " if snap["objective"] == "max" else ">= ")
        lines.append(
            f"{snap['name']:<{name_width}s} | {snap['state']:>8s}"
            f" | {fmt(snap['short_value']):>10s}"
            f" | {fmt(snap['long_value']):>10s}"
            f" | {bound + format(snap['threshold'], '.4g'):>10s}"
        )
    return "\n".join(lines)
