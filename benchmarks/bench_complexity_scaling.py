"""Empirical check of the paper's complexity analysis (§V-B).

The paper derives the per-context cost of HIRE as O(K · n·m·e · (n + m + h)).
This bench measures forward-pass wall-clock while scaling each factor
independently and checks the growth direction (and rough factor) matches:

* doubling K (blocks)        → ~2× time,
* doubling n and m together  → ~8× time (the n·m·(n+m) term),
* doubling h via attr_dim    → super-linear but bounded growth.

Absolute times are machine-specific; the *ratios* are the reproduced claim.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="complexity")
def test_complexity_scaling_matches_paper_analysis(benchmark, save):
    timings = benchmark.pedantic(
        lambda: run_experiment("complexity_scaling", seed=0),
        rounds=1, iterations=1,
    )
    save("complexity_scaling", timings)

    # K term: linear in the number of blocks (allow generous slack).
    assert timings["K=4"] > timings["K=1"] * 1.5
    # n·m·(n+m) term: 4× the entities should cost much more than 4×.
    assert timings["nm=32"] > timings["nm=8"] * 4.0
    # e term grows with attribute width.
    assert timings["f=16"] > timings["f=4"]

    benchmark.extra_info.update({k: v for k, v in timings.items()})
