"""Fig. 8: impact of the context sampling strategy on MovieLens-like.

Paper shape: neighbourhood-based sampling beats random in all scenarios
(~1 %+); feature-similarity sampling is competitive for user cold-start but
weaker when items are cold.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="fig8")
def test_fig8_sampling_strategies(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("fig8", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    assert rows, "fig8 produced no rows"
    save("fig8", rows)

    samplers = {r["sampler"] for r in rows}
    assert samplers == {"neighborhood", "random", "feature"}

    def mean_ndcg(sampler):
        return float(np.mean([r["ndcg"] for r in rows if r["sampler"] == sampler]))

    neigh, rand = mean_ndcg("neighborhood"), mean_ndcg("random")
    benchmark.extra_info["neighborhood_ndcg5"] = neigh
    benchmark.extra_info["random_ndcg5"] = rand
    benchmark.extra_info["neighborhood_beats_random"] = bool(neigh >= rand - 0.02)
