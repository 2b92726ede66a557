"""Fig. 9: case study — visualise the learned attention of a trained HIRE.

Reproduces the paper's qualitative artifact: the MBU (user-user), MBI
(item-item) and MBA (attribute-attribute) attention matrices of the last
HIM block for one prediction context, rendered as ASCII heatmaps, plus the
predicted vs ground-truth ratings of the masked cells the paper's narrative
cites.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="fig9")
def test_fig9_attention_case_study(benchmark, save):
    out = benchmark.pedantic(
        lambda: run_experiment("fig9", scale="fast", seed=0),
        rounds=1, iterations=1,
    )

    assert set(out["attention"]) == {"user", "item", "attr"}
    save("fig9", out)

    # Attention matrices are row-stochastic, asymmetric in general.
    for key, matrix in out["attention"].items():
        np.testing.assert_allclose(matrix.sum(axis=-1),
                                   np.ones(matrix.shape[0]), atol=1e-6,
                                   err_msg=key)
    benchmark.extra_info["num_query_cells"] = int(len(out["query_cells"]))
