"""Table VI: ablation of the three attention layers (MBU / MBI / MBA).

Seven variants — the full model and all single/double layer removals — in
the three cold-start scenarios, metrics @5 on the MovieLens-like workload.

Paper shape: the full model is best overall; user-attention alone
("wo/ Item & Attribute") is the weakest variant.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="table6")
def test_table6_attention_ablation(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("table6", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    assert rows, "table6 produced no rows"
    save("table6", rows)

    variants = {r["variant"] for r in rows}
    assert len(variants) == 7
    assert "full model" in variants

    def mean_ndcg(variant):
        vals = [r["ndcg"] for r in rows if r["variant"] == variant]
        return float(np.mean(vals))

    full = mean_ndcg("full model")
    benchmark.extra_info["full_model_ndcg5"] = full
    benchmark.extra_info["worst_variant_ndcg5"] = min(
        mean_ndcg(v) for v in variants if v != "full model")
    benchmark.extra_info["full_is_best"] = bool(
        full >= max(mean_ndcg(v) for v in variants) - 0.05)
