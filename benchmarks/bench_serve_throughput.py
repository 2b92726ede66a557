"""Throughput benchmark of the online serving subsystem.

Replays a skewed workload through ``repro.serve.PredictionService`` across
micro-batch sizes with the context cache on and off, against a sequential
one-request-at-a-time baseline on the same predictor code path.  An
assembly section measures the CSR-vectorized sampler against the loop
reference, the frontier cache's hot hit rate, and the adaptive budget
ladder under overload.  Every serviced run must stay bit-identical to the
baseline.  The full run writes ``BENCH_serve.json`` at the repo root so
the throughput trajectory is tracked across PRs; ``--smoke`` runs a
shrunken grid in seconds and skips the JSON write.
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

    base = payload["baseline_sequential"]
    lines = [
        f"sequential baseline: {base['requests_per_second']:7.1f} req/s "
        f"({base['seconds']:.2f}s for {payload['config']['num_requests']} requests)",
    ]
    for run in payload["runs"]:
        cache = "cache on " if run["cache"] else "cache off"
        lines.append(
            f"batch={run['batch_size']:<2d} {cache}: "
            f"{run['requests_per_second']:7.1f} req/s "
            f"({run['speedup_vs_sequential']:.2f}x)  "
            f"p50 {run['latency_p50_ms']:7.1f} ms  "
            f"p99 {run['latency_p99_ms']:7.1f} ms  "
            f"bit-identical: {run['bit_identical_to_sequential']}")
    lines.append(
        f"best: batch={payload['best_config']['batch_size']} "
        f"cache={'on' if payload['best_config']['cache'] else 'off'} "
        f"-> {payload['best_speedup']:.2f}x")
    pack = payload["packing"]
    cache = pack["plan_cache"]
    lines.append(
        f"mixed-shape packing ({pack['num_requests']} requests over "
        f"{len(pack['mixed_budgets'])} budgets): "
        f"exact-only {pack['exact_only_seconds']:.2f}s vs "
        f"packed {pack['packed_seconds']:.2f}s "
        f"-> pack_gain {pack['pack_gain']:.2f}x  "
        f"bit-identical: {pack['bit_identical_to_sequential']}")
    lines.append(
        f"steady-state plan cache hit rate: exact-only "
        f"{cache['exact_only']['hit_rate'] * 100:.0f}% "
        f"({cache['exact_only']['misses']:.0f} misses) vs packed "
        f"{cache['packed']['hit_rate'] * 100:.0f}% "
        f"({cache['packed']['misses']:.0f} misses); "
        f"{pack['packed_contexts_total']:.0f} contexts padded, "
        f"last pad waste {pack['pad_waste_last'] * 100:.0f}%")
    tracing = payload["tracing"]
    lines.append(
        f"tracing plane: untraced {tracing['untraced_seconds']:.2f}s vs "
        f"traced {tracing['traced_seconds']:.2f}s "
        f"-> overhead {tracing['overhead'] * 100:+.1f}%  "
        f"bit-identical: {tracing['bit_identical']}  "
        f"({tracing['traces_completed']} traces, "
        f"{tracing['export_snapshots']} export snapshots)")
    for stage, stats in tracing["stage_breakdown"].items():
        lines.append(
            f"  stage {stage:<10s}: mean {stats['mean_ms']:7.2f} ms  "
            f"p99 {stats['p99_ms']:7.2f} ms  (n={stats['count']})")
    assembly = payload["assembly"]
    frontier = assembly["frontier"]
    adaptive = assembly["adaptive"]
    lines.append(
        f"assembly ({assembly['num_requests']} power-law requests): "
        f"loop {assembly['loop_seconds']:.2f}s vs vectorized "
        f"{assembly['vectorized_seconds']:.2f}s "
        f"-> {assembly['vectorized_speedup']:.2f}x  "
        f"contexts identical: {assembly['contexts_identical']}")
    lines.append(
        f"  frontier cache: cold hit rate "
        f"{frontier['cold_hit_rate'] * 100:.0f}% -> hot "
        f"{frontier['hot_hit_rate'] * 100:.0f}% "
        f"({frontier['hits']} hits / {frontier['misses']} misses)  "
        f"bit-identical: {frontier['bit_identical_to_sequential']}")
    lines.append(
        f"  adaptive ladder {adaptive['ladder']}: fixed p99 "
        f"{adaptive['fixed_p99_ms']:.0f} ms vs adaptive "
        f"{adaptive['adaptive_p99_ms']:.0f} ms "
        f"(SLO {adaptive['slo_p99_ms']:.0f} ms, health "
        f"{adaptive['health_state']})  "
        f"{adaptive['degraded_requests']:.0f} degraded  "
        f"bit-identical at effective budgets: "
        f"{adaptive['degraded_bit_identical']}")
    text = "\n".join(lines)
    print("\nServe throughput benchmark\n" + text)

    # Bit-identity is non-negotiable at every scale: batching, caching,
    # padded packing and tracing may never change a score.
    assert payload["bit_identical_all_runs"]
    assert payload["packing"]["bit_identical_to_sequential"]
    assert tracing["bit_identical"]
    # The vectorized sampler is an implementation of the loop sampler,
    # not a variant: contexts must match bit for bit, and every frontier
    # hit / adaptive degradation must reproduce sequential scores exactly.
    assert assembly["contexts_identical"]
    assert frontier["bit_identical_to_sequential"]
    assert adaptive["fixed_bit_identical"]
    assert adaptive["degraded_bit_identical"]
    assert all(check["bit_identical"] for check in adaptive["rung_checks"])
    # Every completed trace must reach the JSONL sink.
    assert tracing["trace_sink_records"] == tracing["traces_completed"]

    if not smoke_mode:
        save("serve_throughput", text)
        path = write_serve_bench_json(payload)
        print(f"wrote {path}")
        # Acceptance: batched+cached serving at least 2x the sequential
        # baseline (assert with headroom for CI noise).
        assert payload["best_speedup"] >= 1.5
        # Acceptance: shape-bucketed packing beats exact-shape-only
        # grouping on mixed traffic by a real margin.
        assert pack["pack_gain"] > 1.15
        # Bucketed plan keys keep the LRU stable where exact-shape keys
        # fragment it: the packed mode must not hit less often.
        assert (cache["packed"]["hit_rate"]
                >= cache["exact_only"]["hit_rate"])
        assert cache["packed"]["hit_rate"] >= 0.8
        # Acceptance: the full telemetry plane (tracer + windows + sink +
        # exporter) costs at most 3% of steady-state throughput.
        assert tracing["overhead"] <= 0.03
        # Acceptance: CSR-vectorized assembly beats the loop sampler
        # outright, and repeat traffic skips the BFS almost entirely.
        assert assembly["vectorized_speedup"] >= 1.5
        assert frontier["hot_hit_rate"] >= 0.8
        # Acceptance: under overload, degrading context budgets must buy
        # real tail latency — the ladder's p99 beats fixed budgets and
        # lands inside the SLO that fixed budgets breach.
        assert adaptive["adaptive_p99_ms"] < adaptive["fixed_p99_ms"]
        assert adaptive["health_state"] == "ok"
        assert adaptive["degraded_requests"] > 0
