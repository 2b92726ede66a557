"""Benchmark of the incremental fine-tuning / gated promotion loop.

Drives ``repro.online`` through a simulated distribution shift (warm
ratings flipped across the scale midpoint, streamed as re-rating deltas)
and through a serve-while-training replay where a background round trains
and hot-swaps mid-workload.  The full run writes ``BENCH_online.json`` at
the repo root so the recovery trajectory is tracked across PRs; ``--smoke``
shrinks everything to a seconds-long sanity pass and skips the JSON write.
"""

import pytest

from repro.experiments.online_bench import (
    run_online_benchmark,
    write_online_bench_json,
)


@pytest.mark.benchmark(group="online")
def test_online_loop(benchmark, save, smoke_mode):
    payload = benchmark.pedantic(
        lambda: run_online_benchmark(smoke=smoke_mode),
        rounds=1, iterations=1,
    )

    recovery = payload["recovery"]
    serving = payload["serve_during_training"]
    reproducibility = payload["reproducibility"]
    series = "  ".join(f"{v:.4f}" for v in recovery["active_rmse_series"])
    recover_round = recovery["rounds_to_recover"]
    lines = [
        f"shift: {recovery['num_shift_deltas']} re-rating deltas over "
        f"{recovery['num_rounds']} rounds "
        f"({recovery['probe_tasks']} probe tasks)",
        f"probe RMSE at shift {recovery['rmse_at_shift']:.4f} -> series "
        f"{series}",
        f"recovery ratio {recovery['rmse_recovery_ratio']:.3f}x "
        f"(best promoted {recovery['best_promoted_rmse']:.4f}, "
        f"recovered by round "
        f"{'never' if recover_round is None else recover_round}; "
        f"{recovery['promotions']} promotions, "
        f"{recovery['rejections']} rejections)",
        f"serve during training: {serving['responses_resolved']}"
        f"/{serving['num_requests']} responses "
        f"({serving['served_pre_swap_model']} pre-swap, "
        f"{serving['served_post_swap_model']} post-swap), "
        f"bit-identical: {serving['bit_identical']}, "
        f"swap p99 {serving['swap_p99_ms']:.2f} ms",
        f"same round twice bit-identical: "
        f"{reproducibility['bit_identical']} "
        f"(max param diff {reproducibility['max_param_diff']:.3g})",
    ]
    text = "\n".join(lines)
    print("\nOnline loop benchmark\n" + text)

    # Non-negotiable at every scale: the serving plane never blends models
    # (every response matches exactly one reference), never loses a
    # future, and a re-run round is bit-identical.
    assert serving["all_futures_resolved"]
    assert serving["bit_identical"]
    assert reproducibility["bit_identical"]
    assert reproducibility["same_round_seed"]

    if not smoke_mode:
        save("online_loop", text)
        path = write_online_bench_json(payload)
        print(f"wrote {path}")
        # Acceptance: the loop must actually claw accuracy back after the
        # shift (promoted model strictly better on the shifted probe).
        assert recovery["rmse_recovery_ratio"] > 1.0
        assert recovery["promotions"] >= 1
        # Hot swaps must stay far below request latency.
        assert serving["swap_p99_ms"] < 50.0
