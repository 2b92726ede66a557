"""Text rendering of experiment results in the paper's table layout, and
:func:`render_artifact`, every ``results/`` file of a registry artifact."""

from __future__ import annotations

import numpy as np

from .configs import EXPERIMENTS

__all__ = [
    "render_artifact",
    "render_overall_table",
    "render_ablation_table",
    "render_timing_table",
    "render_sweep_table",
    "render_attention_matrix",
]

_SCENARIO_LABELS = {"user": "UC", "item": "IC", "both": "U&I C"}


def render_overall_table(rows: list[dict], ks: tuple[int, ...] = (5, 7, 10)) -> str:
    """Tables III-V: scenario blocks × models, metric columns per k."""
    if not rows:
        return "(no results)"
    lines = []
    header = ["Scenario", "Method"]
    for k in ks:
        header += [f"Pre@{k}", f"NDCG@{k}", f"MAP@{k}"]
    lines.append(" | ".join(f"{h:>10s}" for h in header))
    lines.append("-" * len(lines[0]))
    scenarios = _ordered_unique(r["scenario"] for r in rows)
    models = _ordered_unique(r["model"] for r in rows)
    for scenario in scenarios:
        for model in models:
            cells = [f"{_SCENARIO_LABELS.get(scenario, scenario):>10s}", f"{model:>10s}"]
            found = False
            for k in ks:
                match = [r for r in rows
                         if r["scenario"] == scenario and r["model"] == model and r["k"] == k]
                if match:
                    found = True
                    r = match[0]
                    cells += [f"{r['precision']:>10.4f}", f"{r['ndcg']:>10.4f}",
                              f"{r['map']:>10.4f}"]
                else:
                    cells += [f"{'-':>10s}"] * 3
            if found:
                lines.append(" | ".join(cells))
        lines.append("-" * len(lines[0]))
    return "\n".join(lines)


def render_ablation_table(rows: list[dict]) -> str:
    """Table VI: ablation variants × scenarios, metrics @5."""
    if not rows:
        return "(no results)"
    scenarios = _ordered_unique(r["scenario"] for r in rows)
    header = ["Blocks".ljust(24)]
    for scenario in scenarios:
        label = _SCENARIO_LABELS.get(scenario, scenario)
        header += [f"{label} Pre@5", f"{label} NDCG@5", f"{label} MAP@5"]
    lines = [" | ".join(f"{h:>12s}" if i else h for i, h in enumerate(header))]
    lines.append("-" * len(lines[0]))
    for variant in _ordered_unique(r["variant"] for r in rows):
        cells = [variant.ljust(24)]
        for scenario in scenarios:
            match = [r for r in rows
                     if r["variant"] == variant and r["scenario"] == scenario]
            if match:
                r = match[0]
                cells += [f"{r['precision']:>12.4f}", f"{r['ndcg']:>12.4f}",
                          f"{r['map']:>12.4f}"]
            else:
                cells += [f"{'-':>12s}"] * 3
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def render_timing_table(rows: list[dict]) -> str:
    """Fig. 6 as a table: per-dataset total test time per method."""
    if not rows:
        return "(no results)"
    datasets = _ordered_unique(r["dataset"] for r in rows)
    models = _ordered_unique(r["model"] for r in rows)
    header = ["Method".ljust(12)] + [f"{d:>16s}" for d in datasets]
    lines = [" | ".join(header), "-" * (14 + 19 * len(datasets))]
    for model in models:
        cells = [model.ljust(12)]
        for dataset in datasets:
            match = [r for r in rows if r["model"] == model and r["dataset"] == dataset]
            cells.append(f"{match[0]['test_seconds']:>15.3f}s" if match else f"{'-':>16s}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def render_sweep_table(rows: list[dict], sweep_key: str) -> str:
    """Fig. 7 / Fig. 8: one line per swept value × scenario."""
    if not rows:
        return "(no results)"
    header = [sweep_key.ljust(18), "Scenario".ljust(8), "Pre@5".rjust(8),
              "NDCG@5".rjust(8), "MAP@5".rjust(8)]
    lines = [" | ".join(header), "-" * 62]
    for r in rows:
        lines.append(" | ".join([
            str(r[sweep_key]).ljust(18),
            _SCENARIO_LABELS.get(r["scenario"], r["scenario"]).ljust(8),
            f"{r['precision']:8.4f}", f"{r['ndcg']:8.4f}", f"{r['map']:8.4f}",
        ]))
    return "\n".join(lines)


def render_attention_matrix(matrix: np.ndarray, labels: list[str] | None = None,
                            max_width: int = 16) -> str:
    """ASCII heatmap of an attention matrix (Fig. 9 case study)."""
    matrix = np.asarray(matrix)
    shades = " .:-=+*#%@"
    lo, hi = matrix.min(), matrix.max()
    span = (hi - lo) or 1.0
    lines = []
    for i, row in enumerate(matrix[:max_width]):
        cells = "".join(
            shades[min(int((v - lo) / span * (len(shades) - 1)), len(shades) - 1)]
            for v in row[:max_width]
        )
        label = (labels[i][:12].ljust(12) if labels and i < len(labels) else f"{i:>3d}      ")
        lines.append(f"{label} |{cells}|")
    return "\n".join(lines)


def _ruled(header: str, lines) -> str:
    """``header``, a rule as wide as it, then ``lines``."""
    return "\n".join([header, "-" * len(header), *lines])


def _render_sensitivity(rows: list[dict]) -> str:
    """Fig. 7: the HIM-blocks sweep, then the context-size sweep."""
    return "\n\n".join(
        f"{title}\n" + render_sweep_table([r for r in rows if r["sweep"] == sweep],
                                          "value")
        for title, sweep in (("HIM blocks sweep", "num_him_blocks"),
                             ("Context size sweep", "context_size")))


def _render_residual(rows: list[dict]) -> str:
    """The residual / pre-layer-norm ablation @5, one line per variant."""
    return _ruled(
        f"{'residual':>9s} | {'layernorm':>9s} | {'Pre@5':>7s} | "
        f"{'NDCG@5':>7s} | {'MAP@5':>7s}",
        [f"{str(r['residual']):>9s} | {str(r['layer_norm']):>9s} | "
         f"{r['precision']:7.4f} | {r['ndcg']:7.4f} | {r['map']:7.4f}"
         for r in rows])


def _render_case_study(case: dict) -> str:
    """Fig. 9: the three attention heatmaps over the context's entities,
    then predicted vs actual ratings on the first masked cells."""
    sections = [
        "MBU attention between users (seed item column)",
        render_attention_matrix(case["attention"]["user"],
                                [f"u{u}" for u in case["users"]]),
        "\nMBI attention between items (seed user row)",
        render_attention_matrix(case["attention"]["item"],
                                [f"i{i}" for i in case["items"]]),
        "\nMBA attention between attributes (seed cell)",
        render_attention_matrix(case["attention"]["attr"],
                                list(case["attribute_names"])),
        "\npredicted vs actual on masked cells",
    ]
    for row, col in case["query_cells"][:8]:
        sections.append(
            f"  user {case['users'][row]:>4d} item {case['items'][col]:>4d}: "
            f"predicted {case['predictions'][row, col]:.2f} "
            f"actual {case['ground_truth'][row, col]:.0f}")
    return "\n".join(sections)


def _render_igmc(rows: list[dict]) -> tuple[str, str]:
    """The IGMC extension @5: its metrics, then its fit/predict seconds."""
    rows = [r for r in rows if r["k"] == 5]
    metrics = _ruled(
        f"{'model':<6s} | {'Pre@5':>7s} | {'NDCG@5':>7s} | {'MAP@5':>7s}",
        [f"{r['model']:<6s} | {r['precision']:7.4f} | {r['ndcg']:7.4f} "
         f"| {r['map']:7.4f}" for r in rows])
    seconds = _ruled(
        f"{'model':<6s} | {'fit':>6s} | {'pred':>6s}",
        [f"{r['model']:<6s} | {r['fit_seconds']:5.1f}s | "
         f"{r['predict_seconds']:5.1f}s" for r in rows])
    return metrics, seconds


# Registry id -> (result, spec, repro.viz) -> the text of each of the
# artifact's files, in ``ExperimentSpec.files`` order.
_RENDERERS = {
    **dict.fromkeys(("table3", "table4", "table5"), lambda rows, spec, viz: (
        render_overall_table(rows, ks=spec.ks),)),
    "fig6": lambda rows, spec, viz: (render_timing_table(rows), viz.fig6_svg(rows)),
    "fig7": lambda rows, spec, viz: (_render_sensitivity(rows),
                                     viz.fig7_svg(rows, sweep="num_him_blocks"),
                                     viz.fig7_svg(rows, sweep="context_size")),
    "table6": lambda rows, spec, viz: (render_ablation_table(rows),),
    "fig8": lambda rows, spec, viz: (render_sweep_table(rows, "sampler"),
                                     viz.fig8_svg(rows)),
    "fig9": lambda case, spec, viz: (_render_case_study(case),
                                     *(viz.fig9_svg(case, which=which)
                                       for which in ("user", "item", "attr"))),
    "ablation_residual": lambda rows, spec, viz: (_render_residual(rows),),
    "extension_igmc": lambda rows, spec, viz: _render_igmc(rows),
    "complexity_scaling": lambda timings, spec, viz: ("\n".join(
        f"{name:>8s}: {seconds * 1e3:9.2f} ms"
        for name, seconds in timings.items()),),
}


def render_artifact(experiment_id: str, result) -> dict[str, str]:
    """Every ``results/`` file of a registry artifact, ``{file name: text}``.

    The names are the spec's ``quality`` and ``timing`` files; each text is
    the file's exact contents, so every writer writes the same bytes.
    """
    # repro.viz loads xml.sax and with it urllib and http.client, so it is
    # imported when an artifact renders, not with the package.
    from .. import viz

    spec = EXPERIMENTS[experiment_id]
    texts = _RENDERERS[experiment_id](result, spec, viz)
    return {name: text + "\n" for name, text in zip(spec.files, texts, strict=True)}


def _ordered_unique(values) -> list:
    seen: dict = {}
    for v in values:
        seen.setdefault(v, None)
    return list(seen)
