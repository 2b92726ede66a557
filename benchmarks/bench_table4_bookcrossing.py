"""Table IV: overall performance on Bookcrossing(-like).

The paper evaluates 8 systems here (no social graph, too few attributes for
an HIN): the CF family, the meta-learners, and HIRE.  Shape: HIRE leads;
meta-learners second tier.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="table4")
def test_table4_overall_performance_bookcrossing(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("table4", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    assert rows, "table4 produced no rows"
    save("table4", rows)

    models = {r["model"] for r in rows}
    # HIN/social baselines are not applicable on this dataset (as in paper).
    assert "GraphRec" not in models
    assert "GraphHINGE" not in models
    assert "HIRE" in models

    def mean_metric(name, metric):
        vals = [r[metric] for r in rows if r["model"] == name and r["k"] == 5]
        return float(np.mean(vals)) if vals else float("nan")

    benchmark.extra_info["hire_ndcg5"] = mean_metric("HIRE", "ndcg")
    benchmark.extra_info["melu_ndcg5"] = mean_metric("MeLU", "ndcg")
