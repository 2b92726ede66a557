"""Ablation of OUR implementation choices (not in the paper's tables).

DESIGN.md records one deliberate deviation inside HIM: each attention layer
is wrapped with a residual connection and pre-layer-norm, the standard
transformer-block structure that keeps a K = 3 stack optimisable under
LAMB.  This bench quantifies that choice by training four variants —
{residual on/off} × {layer-norm on/off} — on the user cold-start scenario.

Expected shape: the full wrapping (residual + norm) trains to the lowest
loss / best NDCG; removing both degrades or destabilises training.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="ablation-residual")
def test_ablation_residual_and_layernorm(benchmark, save):
    rows = benchmark.pedantic(
        lambda: run_experiment("ablation_residual", scale="fast", seed=0),
        rounds=1, iterations=1,
    )
    save("ablation_residual", rows)

    assert len(rows) == 4
    full = next(r for r in rows if r["residual"] and r["layer_norm"])
    bare = next(r for r in rows if not r["residual"] and not r["layer_norm"])
    benchmark.extra_info["full_ndcg5"] = full["ndcg"]
    benchmark.extra_info["bare_ndcg5"] = bare["ndcg"]
