"""Fig. 7: sensitivity of HIRE to (a) the number of HIM blocks K ∈ {1..4}
and (b) the context size ∈ {16, 32, 48, 64}, metrics @5, three scenarios.

Paper shape: performance peaks at K = 3 on MovieLens (more blocks overfit);
accuracy is non-monotonic in the context size with 32 the sweet spot.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="fig7")
def test_fig7_sensitivity_blocks_and_context(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("fig7", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    assert rows, "fig7 produced no rows"

    block_rows = [r for r in rows if r["sweep"] == "num_him_blocks"]
    context_rows = [r for r in rows if r["sweep"] == "context_size"]
    assert {r["value"] for r in block_rows} == {1, 2, 3, 4}
    assert {r["value"] for r in context_rows} == {16, 32, 48, 64}

    save("fig7", rows)

    for r in rows:
        for metric in ("precision", "ndcg", "map"):
            assert 0.0 <= r[metric] <= 1.0
