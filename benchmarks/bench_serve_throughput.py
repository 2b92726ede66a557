"""Telemetry and overload benchmark of the online serving subsystem.

Measures the tracing plane's overhead on a skewed workload replayed
through ``repro.serve.PredictionService``, and the adaptive budget ladder
under overload.  Every served score must stay bit-identical to a
sequential one-request-at-a-time baseline on the same predictor code
path.  The full run writes ``BENCH_serve.json`` at the repo root;
``--smoke`` runs a shrunken config in seconds and skips every write.
"""

import pytest

from repro.experiments.serve_bench import (
    run_serve_benchmark,
    write_serve_bench_json,
)


@pytest.mark.benchmark(group="serve")
def test_serve_throughput(benchmark, save, smoke_mode):
    payload = benchmark.pedantic(
        lambda: run_serve_benchmark(smoke=smoke_mode),
        rounds=1, iterations=1,
    )

    tracing = payload["tracing"]
    lines = [
        f"tracing plane: untraced {tracing['untraced_seconds']:.2f}s vs "
        f"traced {tracing['traced_seconds']:.2f}s "
        f"-> overhead {tracing['overhead'] * 100:+.1f}%  "
        f"bit-identical: {tracing['bit_identical']}  "
        f"({tracing['traces_completed']} traces, "
        f"{tracing['export_snapshots']} export snapshots)",
    ]
    for stage, stats in tracing["stage_breakdown"].items():
        lines.append(
            f"  stage {stage:<10s}: mean {stats['mean_ms']:7.2f} ms  "
            f"p99 {stats['p99_ms']:7.2f} ms  (n={stats['count']})")
    adaptive = payload["adaptive"]
    lines.append(
        f"adaptive ladder {adaptive['ladder']} "
        f"({adaptive['num_requests']} power-law requests): fixed p99 "
        f"{adaptive['fixed_p99_ms']:.0f} ms vs adaptive "
        f"{adaptive['adaptive_p99_ms']:.0f} ms "
        f"(SLO {adaptive['slo_p99_ms']:.0f} ms, health "
        f"{adaptive['health_state']})  "
        f"{adaptive['degraded_requests']:.0f} degraded  "
        f"bit-identical at effective budgets: "
        f"{adaptive['degraded_bit_identical']}")
    text = "\n".join(lines)
    print("\nServe throughput benchmark\n" + text)

    # Bit-identity is non-negotiable at every scale: tracing may never
    # change a score.
    assert tracing["bit_identical"]
    # Every adaptive degradation must reproduce sequential scores exactly.
    assert adaptive["fixed_bit_identical"]
    assert adaptive["degraded_bit_identical"]
    assert all(check["bit_identical"] for check in adaptive["rung_checks"])
    # Every completed trace must reach the JSONL sink.
    assert tracing["trace_sink_records"] == tracing["traces_completed"]

    if not smoke_mode:
        save("serve_throughput", text)
        path = write_serve_bench_json(payload)
        print(f"wrote {path}")
        # Acceptance: the full telemetry plane (tracer + windows + sink +
        # exporter) costs at most 3% of steady-state throughput.
        assert tracing["overhead"] <= 0.03
        # Acceptance: under overload, degrading context budgets must buy
        # real tail latency — the ladder's p99 beats fixed budgets and
        # lands inside the SLO that fixed budgets breach.
        assert adaptive["adaptive_p99_ms"] < adaptive["fixed_p99_ms"]
        assert adaptive["health_state"] == "ok"
        assert adaptive["degraded_requests"] > 0
