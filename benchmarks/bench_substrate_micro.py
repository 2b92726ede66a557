"""Telemetry overhead of the nn training path.

Times the same seeded ``HIRETrainer.fit`` at the paper config (n = m = 32
contexts, K = 3 HIM blocks, 8 heads × 16 dims, float32) with telemetry off,
with every sink and span on, and with op hooks on top.  The full run
writes ``BENCH_substrate.json`` at the repo root; ``--smoke`` runs a
shrunken config in seconds and skips the JSON write.
"""

import pytest

from repro.experiments.substrate_bench import (
    run_observability_overhead,
    write_bench_json,
)


@pytest.mark.benchmark(group="substrate")
def test_substrate_observability_overhead(benchmark, save, smoke_mode):
    overhead = benchmark.pedantic(
        lambda: run_observability_overhead(smoke=smoke_mode),
        rounds=1, iterations=1,
    )

    text = ("telemetry overhead vs disabled: "
            f"sinks+spans {overhead['overhead_sinks_and_spans'] * 100:+.2f}%"
            f"   +op hooks "
            f"{overhead['overhead_sinks_spans_and_ophooks'] * 100:+.2f}%"
            f"   trajectories identical: {overhead['trajectories_identical']}")
    print("\nSubstrate microbenchmark\n" + text)

    assert overhead["trajectories_identical"]

    if not smoke_mode:
        save("substrate_micro", text)
        path = write_bench_json(overhead)
        print(f"wrote {path}")
        # Telemetry acceptance: all sinks + spans within 5% of disabled
        # (assert with headroom for CI noise).
        assert overhead["overhead_sinks_and_spans"] <= 0.10

    benchmark.extra_info.update({
        "overhead_sinks_and_spans": overhead["overhead_sinks_and_spans"],
        "overhead_sinks_spans_and_ophooks":
            overhead["overhead_sinks_spans_and_ophooks"],
        "smoke": smoke_mode,
    })
