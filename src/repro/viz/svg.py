"""Dependency-free SVG chart primitives for the figure artifacts.

The paper's Figures 6-9 are bar charts, line plots and heatmaps; this
module renders each chart type as a standalone SVG string so the benchmark
suite can emit viewable figures (``results/*.svg``) without matplotlib.

Only what the figures need is implemented: grouped bars with log-ish
scaling for timing data, multi-series line charts with markers for the
sensitivity sweeps, and value-annotated heatmaps for attention matrices.
"""

from __future__ import annotations

import math

__all__ = ["line_chart", "bar_chart", "heatmap"]

# A small colour cycle (Okabe-Ito, colour-blind safe).
PALETTE = ("#0072B2", "#E69F00", "#009E73", "#CC79A7",
           "#56B4E9", "#D55E00", "#F0E442", "#000000")

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text (``&`` first, so the
    entities the later replacements insert stay intact)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _header(width: int, height: int, title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="20" text-anchor="middle" {_FONT} '
            f'font-size="14" font-weight="bold">{escape(title)}</text>'
        )
    return parts


def _nice_ticks(low: float, high: float, count: int = 5) -> list[float]:
    if high <= low:
        high = low + 1.0
    raw = (high - low) / max(count - 1, 1)
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step >= raw:
            break
    start = math.floor(low / step) * step
    ticks = []
    value = start
    while value <= high + 1e-12:
        if value >= low - 1e-12:
            ticks.append(round(value, 10))
        value += step
    return ticks or [low, high]


def line_chart(series: dict[str, list[tuple[float, float]]], title: str = "",
               x_label: str = "", y_label: str = "", width: int = 480,
               height: int = 320) -> str:
    """Multi-series line chart; ``series`` maps label → [(x, y), …]."""
    if not series or all(not pts for pts in series.values()):
        raise ValueError("line_chart needs at least one point")
    margin_l, margin_r, margin_t, margin_b = 60, 120, 40, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = _header(width, height, title)
    # Axes + ticks.
    parts.append(f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
                 f'y2="{margin_t + plot_h}" stroke="black"/>')
    parts.append(f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
                 f'x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>')
    for tick in _nice_ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(f'<line x1="{margin_l - 4}" y1="{y}" x2="{margin_l + plot_w}" '
                     f'y2="{y}" stroke="#dddddd"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4}" text-anchor="end" '
                     f'{_FONT} font-size="10">{tick:g}</text>')
    for tick in sorted(set(xs)):
        x = sx(tick)
        parts.append(f'<text x="{x}" y="{margin_t + plot_h + 16}" '
                     f'text-anchor="middle" {_FONT} font-size="10">{tick:g}</text>')
    if x_label:
        parts.append(f'<text x="{margin_l + plot_w / 2}" y="{height - 10}" '
                     f'text-anchor="middle" {_FONT} font-size="11">{escape(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{margin_t + plot_h / 2}" {_FONT} font-size="11" '
                     f'transform="rotate(-90 16 {margin_t + plot_h / 2})" '
                     f'text-anchor="middle">{escape(y_label)}</text>')

    for index, (label, points) in enumerate(series.items()):
        color = PALETTE[index % len(PALETTE)]
        points = sorted(points)
        path = " ".join(f"{'M' if i == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}"
                        for i, (x, y) in enumerate(points))
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in points:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>')
        legend_y = margin_t + 14 * index
        legend_x = margin_l + plot_w + 10
        parts.append(f'<rect x="{legend_x}" y="{legend_y}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 14}" y="{legend_y + 9}" {_FONT} '
                     f'font-size="10">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def bar_chart(values: dict[str, float], title: str = "", y_label: str = "",
              width: int = 520, height: int = 320, log_scale: bool = False) -> str:
    """Vertical bar chart; optional log10 scaling for timing spans."""
    if not values:
        raise ValueError("bar_chart needs at least one bar")
    margin_l, margin_r, margin_t, margin_b = 60, 20, 40, 90
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    raw = list(values.values())
    if log_scale:
        floor = min(v for v in raw if v > 0) if any(v > 0 for v in raw) else 1e-6
        transformed = [math.log10(max(v, floor / 10)) for v in raw]
    else:
        transformed = raw
    t_lo = min(transformed + [0.0]) if not log_scale else min(transformed)
    t_hi = max(transformed)
    if t_hi == t_lo:
        t_hi += 1.0

    def sy(t):
        return margin_t + plot_h - (t - t_lo) / (t_hi - t_lo) * plot_h

    parts = _header(width, height, title)
    bar_w = plot_w / len(values) * 0.7
    gap = plot_w / len(values)
    for index, (label, value) in enumerate(values.items()):
        t = transformed[index]
        x = margin_l + index * gap + (gap - bar_w) / 2
        y = sy(t)
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                     f'height="{margin_t + plot_h - y:.1f}" '
                     f'fill="{PALETTE[index % len(PALETTE)]}"/>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" '
                     f'text-anchor="middle" {_FONT} font-size="9">{value:.3g}</text>')
        label_x = x + bar_w / 2
        label_y = margin_t + plot_h + 12
        parts.append(f'<text x="{label_x:.1f}" y="{label_y}" {_FONT} font-size="10" '
                     f'transform="rotate(-35 {label_x:.1f} {label_y})" '
                     f'text-anchor="end">{escape(label)}</text>')
    parts.append(f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
                 f'x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>')
    if y_label:
        suffix = " (log scale)" if log_scale else ""
        parts.append(f'<text x="16" y="{margin_t + plot_h / 2}" {_FONT} font-size="11" '
                     f'transform="rotate(-90 16 {margin_t + plot_h / 2})" '
                     f'text-anchor="middle">{escape(y_label + suffix)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def heatmap(matrix, row_labels: list[str] | None = None,
            col_labels: list[str] | None = None, title: str = "",
            cell: int = 26) -> str:
    """Value-shaded heatmap (dark = high), the Fig. 9 attention rendering."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        raise ValueError("heatmap needs a non-empty matrix")
    label_w = 90 if row_labels else 20
    label_h = 70 if col_labels else 20
    width = label_w + cols * cell + 20
    height = 40 + label_h + rows * cell + 10

    flat = [v for row in matrix for v in row]
    lo, hi = min(flat), max(flat)
    span = (hi - lo) or 1.0

    parts = _header(width, height, title)
    top = 40 + label_h
    for r in range(rows):
        for c in range(cols):
            value = (matrix[r][c] - lo) / span
            shade = int(255 - value * 200)
            x = label_w + c * cell
            y = top + r * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="rgb({shade},{shade},255)" stroke="#cccccc"/>')
    if row_labels:
        for r, label in enumerate(row_labels[:rows]):
            parts.append(f'<text x="{label_w - 6}" y="{top + r * cell + cell / 2 + 4}" '
                         f'text-anchor="end" {_FONT} font-size="10">{escape(str(label))}</text>')
    if col_labels:
        for c, label in enumerate(col_labels[:cols]):
            x = label_w + c * cell + cell / 2
            y = top - 6
            parts.append(f'<text x="{x}" y="{y}" {_FONT} font-size="10" '
                         f'transform="rotate(-60 {x} {y})">{escape(str(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
