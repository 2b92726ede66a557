"""Microbenchmark of the nn substrate's fused/float32 fast path.

Times ``HIRETrainer.train_step`` and ``HIRE.forward`` at the paper config
(n = m = 32 contexts, K = 3 HIM blocks, 8 heads × 16 dims) in two modes:
the original decomposed float64 kernels (baseline) and the fused
single-node kernels under the float32 dtype policy.  The full run writes
``BENCH_substrate.json`` at the repo root so the speedup trajectory is
tracked across PRs; ``--smoke`` runs a shrunken config in seconds and
skips the JSON write.
"""

import pytest

from repro.experiments.substrate_bench import (
    run_observability_overhead,
    run_substrate_microbench,
    write_bench_json,
)


@pytest.mark.benchmark(group="substrate")
def test_substrate_micro_fused_speedup(benchmark, save, smoke_mode):
    payload = benchmark.pedantic(
        lambda: run_substrate_microbench(smoke=smoke_mode),
        rounds=1, iterations=1,
    )

    overhead = run_observability_overhead(smoke=smoke_mode)
    payload["observability"] = overhead

    base = payload["baseline_float64_unfused"]
    fused = payload["fused_float32"]
    lines = [
        f"baseline (float64, unfused): {base['train_step_seconds'] * 1e3:9.1f} ms/step"
        f"   forward {base['forward_seconds'] * 1e3:8.1f} ms",
        f"fused    (float32, fused)  : {fused['train_step_seconds'] * 1e3:9.1f} ms/step"
        f"   forward {fused['forward_seconds'] * 1e3:8.1f} ms",
        f"speedup  train_step {payload['speedup_train_step']:.2f}x"
        f"   forward {payload['speedup_forward']:.2f}x",
        "telemetry overhead vs disabled: "
        f"sinks+spans {overhead['overhead_sinks_and_spans'] * 100:+.2f}%"
        f"   +op hooks {overhead['overhead_sinks_spans_and_ophooks'] * 100:+.2f}%"
        f"   trajectories identical: {overhead['trajectories_identical']}",
    ]
    text = "\n".join(lines)
    print("\nSubstrate microbenchmark\n" + text)

    assert overhead["trajectories_identical"]

    if not smoke_mode:
        save("substrate_micro", text)
        path = write_bench_json(payload)
        print(f"wrote {path}")
        # Full scale: the fused float32 path must be decisively faster.
        # (The acceptance target is 1.8x; assert with headroom for CI noise.)
        assert payload["speedup_train_step"] >= 1.2
        # Telemetry acceptance: all sinks + spans within 5% of disabled
        # (assert with headroom for CI noise).
        assert overhead["overhead_sinks_and_spans"] <= 0.10

    benchmark.extra_info.update({
        "speedup_train_step": payload["speedup_train_step"],
        "speedup_forward": payload["speedup_forward"],
        "overhead_sinks_and_spans": overhead["overhead_sinks_and_spans"],
        "overhead_sinks_spans_and_ophooks":
            overhead["overhead_sinks_spans_and_ophooks"],
        "smoke": smoke_mode,
    })
