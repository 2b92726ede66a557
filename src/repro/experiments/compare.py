"""Paper-vs-measured comparison for the overall-performance tables.

Renders, for one experiment, the paper's @5 numbers next to measured rows
and evaluates the qualitative *shape* relations the reproduction is judged
on (EXPERIMENTS.md): who wins each scenario, how method families order, and
whether the ablation ordering holds.
"""

from __future__ import annotations

import numpy as np

from .paper_numbers import PAPER_FINDINGS, _TABLES

__all__ = ["compare_overall", "shape_checks", "render_comparison"]

CF_FAMILY = ("NeuMF", "Wide&Deep", "DeepFM", "AFN")
META_FAMILY = ("MAMO", "TaNP", "MeLU")


def _row_name(row: dict) -> str | None:
    """The system a row measures: an overall table's ``model``, or an
    ablation's ``variant`` (Table VI's labels are ``PAPER_TABLE6``'s keys)."""
    return row.get("model", row.get("variant"))


def _measured_cell(rows: list[dict], scenario: str, model: str, metric: str,
                   k: int = 5) -> float | None:
    # Ablation rows hold metrics@5 and carry no ``k`` column.
    values = [r[metric] for r in rows
              if r.get("scenario") == scenario and _row_name(r) == model
              and r.get("k", 5) == k]
    return float(np.mean(values)) if values else None


def compare_overall(table: str, rows: list[dict]) -> list[dict]:
    """Per-cell paper-vs-measured records for one overall table (@5)."""
    if table not in _TABLES:
        raise KeyError(f"no paper numbers for {table!r}")
    records = []
    for scenario, models in _TABLES[table].items():
        for model, (p_pre, p_ndcg, p_map) in models.items():
            records.append({
                "scenario": scenario,
                "model": model,
                "paper": {"precision": p_pre, "ndcg": p_ndcg, "map": p_map},
                "measured": {
                    metric: _measured_cell(rows, scenario, model, metric)
                    for metric in ("precision", "ndcg", "map")
                },
            })
    return records


def _family_mean(rows: list[dict], scenario: str, family, metric: str) -> float | None:
    values = [v for m in family
              if (v := _measured_cell(rows, scenario, m, metric)) is not None]
    return float(np.mean(values)) if values else None


def shape_checks(table: str, rows: list[dict], tolerance: float = 0.02) -> dict[str, bool | None]:
    """The qualitative relations the paper's overall tables establish.

    * ``hire_beats_cf_family`` — HIRE's mean NDCG@5 over scenarios is at
      least the CF family's mean (within ``tolerance``).
    * ``hire_top2_each_scenario`` — HIRE ranks in the top 2 of all
      evaluated systems in every scenario (NDCG@5).
    * ``meta_beats_cf_on_cold_items`` — meta-learners' mean ≥ CF family's
      mean on the item/both scenarios (the paper's CF-collapse finding).

    ``None`` means the relation could not be evaluated from ``rows``.
    """
    scenarios = sorted({r["scenario"] for r in rows})
    if not scenarios:
        return {"hire_beats_cf_family": None,
                "hire_top2_each_scenario": None,
                "meta_beats_cf_on_cold_items": None}

    hire = [_measured_cell(rows, s, "HIRE", "ndcg") for s in scenarios]
    cf = [_family_mean(rows, s, CF_FAMILY, "ndcg") for s in scenarios]
    checks: dict[str, bool | None] = {}

    if all(v is not None for v in hire) and all(v is not None for v in cf):
        checks["hire_beats_cf_family"] = bool(
            np.mean(hire) >= np.mean(cf) - tolerance)
    else:
        checks["hire_beats_cf_family"] = None

    top2 = []
    for s in scenarios:
        models = sorted({_row_name(r) for r in rows if r["scenario"] == s})
        scored = [(m, _measured_cell(rows, s, m, "ndcg")) for m in models]
        scored = [(m, v) for m, v in scored if v is not None]
        if not scored or "HIRE" not in dict(scored):
            top2.append(None)
            continue
        ranked = sorted(scored, key=lambda mv: -mv[1])
        position = [m for m, _ in ranked].index("HIRE")
        hire_v = dict(scored)["HIRE"]
        second_v = ranked[min(1, len(ranked) - 1)][1]
        top2.append(position <= 1 or hire_v >= second_v - tolerance)
    checks["hire_top2_each_scenario"] = (None if any(v is None for v in top2)
                                         else bool(all(top2)))

    cold = [s for s in scenarios if s in ("item", "both")]
    meta = [_family_mean(rows, s, META_FAMILY, "ndcg") for s in cold]
    cf_cold = [_family_mean(rows, s, CF_FAMILY, "ndcg") for s in cold]
    if cold and all(v is not None for v in meta) and all(v is not None for v in cf_cold):
        checks["meta_beats_cf_on_cold_items"] = bool(
            np.mean(meta) >= np.mean(cf_cold) - tolerance)
    else:
        checks["meta_beats_cf_on_cold_items"] = None
    return checks


def render_comparison(table: str, rows: list[dict]) -> str:
    """Text table: paper vs measured NDCG@5 / Precision@5 per cell."""
    records = compare_overall(table, rows)
    width = max(12, *(len(rec["model"]) for rec in records))
    lines = [f"{'scenario':>8s} | {'model':<{width}s} | "
             f"{'paper N@5':>9s} {'ours N@5':>9s} | "
             f"{'paper P@5':>9s} {'ours P@5':>9s}"]
    lines.append("-" * len(lines[0]))
    for rec in records:
        def fmt(v):
            return f"{v:9.4f}" if v is not None else f"{'—':>9s}"
        lines.append(
            f"{rec['scenario']:>8s} | {rec['model']:<{width}s} | "
            f"{fmt(rec['paper']['ndcg'])} {fmt(rec['measured']['ndcg'])} | "
            f"{fmt(rec['paper']['precision'])} {fmt(rec['measured']['precision'])}"
        )
    checks = shape_checks(table, rows)
    lines.append("")
    lines.append(f"paper finding: {PAPER_FINDINGS.get(table, '(n/a)')}")
    for name, verdict in checks.items():
        symbol = {True: "PASS", False: "MISS", None: "n/a "}[verdict]
        lines.append(f"  [{symbol}] {name}")
    return "\n".join(lines)
