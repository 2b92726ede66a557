"""Table V: overall performance on Douban(-like), including GraphRec.

Shape: GraphRec is competitive in the user cold-start scenario (social
relations help cold users) but weaker with cold items; HIRE leads overall.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="table5")
def test_table5_overall_performance_douban(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("table5", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    assert rows, "table5 produced no rows"
    save("table5", rows)

    models = {r["model"] for r in rows}
    assert "GraphRec" in models, "GraphRec must run on the social dataset"
    assert "HIRE" in models

    def mean_metric(name, metric, scenario=None):
        vals = [r[metric] for r in rows
                if r["model"] == name and r["k"] == 5
                and (scenario is None or r["scenario"] == scenario)]
        return float(np.mean(vals)) if vals else float("nan")

    benchmark.extra_info["hire_ndcg5"] = mean_metric("HIRE", "ndcg")
    benchmark.extra_info["graphrec_uc_ndcg5"] = mean_metric("GraphRec", "ndcg", "user")
    benchmark.extra_info["graphrec_ic_ndcg5"] = mean_metric("GraphRec", "ndcg", "item")
