"""Fig. 6: total test time per method (user cold-start, all three datasets).

Paper shape: the CF family is fastest (pair-at-a-time forward passes); HIRE
is mid-pack (multi-layer MHSA over contexts); adaptation-based meta-learners
and the graph aggregators are slowest, with MAMO roughly an order of
magnitude slower than HIRE.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="fig6")
def test_fig6_total_test_time(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("fig6", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    assert rows, "fig6 produced no rows"
    save("fig6", rows)

    by_model: dict[str, float] = {}
    for row in rows:
        by_model.setdefault(row["model"], 0.0)
        by_model[row["model"]] += row["test_seconds"]

    # Record the paper's headline timing relations.
    cf_fastest = min(by_model[m] for m in ("NeuMF", "Wide&Deep", "DeepFM", "AFN"))
    benchmark.extra_info["cf_fastest_s"] = cf_fastest
    benchmark.extra_info["hire_s"] = by_model.get("HIRE")
    benchmark.extra_info["mamo_s"] = by_model.get("MAMO")
    benchmark.extra_info["cf_faster_than_hire"] = bool(cf_fastest <= by_model["HIRE"])
