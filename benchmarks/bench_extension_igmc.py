"""Extension: HIRE vs GNN-based inductive matrix completion (IGMC).

§IV-A of the paper frames HIRE as analogous to inductive matrix completion
but argues MHSA's learned soft adjacency is more flexible than message
passing over the fixed observed-rating graph.  This bench quantifies that
claim on our workload: IGMC (enclosing-subgraph R-GCN, structural labels
only) vs HIRE on user cold-start.

Expected shape: HIRE ≥ IGMC — IGMC sees only the rating structure, HIRE
additionally attends over attributes and the full context block.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="extension-igmc")
def test_extension_igmc_vs_hire(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("extension_igmc", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    save("extension_igmc", rows)
    rows = [r for r in rows if r["k"] == 5]

    by_model = {r["model"]: r for r in rows}
    benchmark.extra_info["igmc_ndcg5"] = by_model["IGMC"]["ndcg"]
    benchmark.extra_info["hire_ndcg5"] = by_model["HIRE"]["ndcg"]
