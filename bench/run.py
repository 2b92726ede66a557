"""The HIRE performance ledger: one command per workload, metrics by name.

    python3 bench/run.py --workload serve-hot --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark pins itself to one CPU,
sets the workload up ``SETUPS`` times (``setup_s`` is the median; imports
are not included), measures it for ``--seconds``, checks every output,
prints each metric as ``name value unit`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` sets up once,
runs the workload with timing shims around each layer and reports the
per-layer metrics, with the shims' own cost as ``trace.overhead_frac``.
The full result goes to ``bench/out/<workload>-<seed>.json`` and the spans
of a traced run to ``bench/out/<workload>-<seed>.trace.jsonl``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# One BLAS thread: the service worker, the online controller and the load
# thread already share one CPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
SETUPS = 20
MAX_LATE_MS = 20.0
TAILS = (0.75, 0.9, 0.95, 0.99)   # latency percentiles worth reporting


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets and models: a seconds-long "
                             "self-test of the same code paths")
    return parser.parse_args()


def pin_to_one_cpu() -> int:
    """Pin this process, and every thread it starts later, to the last CPU
    it may use.  Left free, the service worker, the online controller and
    the load thread migrate and overlap differently on every run; on one
    CPU they take turns the same way each time."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _jsonable(value):
    return value.tolist() if hasattr(value, "tolist") else float(value)


def main() -> int:
    # BENCHMARK.json names the workloads and every metric with its unit.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    # The bench modules import as the ``bench`` package (the script's own
    # directory on the path would let bench/trace.py shadow the standard
    # library's ``trace``), the program from this checkout's source tree.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    cpu = pin_to_one_cpu()
    import numpy as np

    from bench import flops, layers, loadgen, trace, workloads

    import_s = time.perf_counter() - STARTED
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.smoke)

    def measure(stack, recorder=None):
        shims = (trace.install(recorder, **workload.shim_targets(stack))
                 if recorder is not None else None)
        try:
            return workload.run(stack, args.seed, args.seconds, OUT, recorder)
        finally:
            if shims is not None:
                shims.remove()
            workload.close(stack)

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "import_s": import_s,
              "cpu": cpu}
    if args.trace:
        recorder = trace.Recorder()
        outcome = measure(workload.setup(), recorder)
        reported = result["per_layer"] = layers.layer_metrics(
            outcome, recorder.spans, threading.current_thread().name,
            flops.gemm_peak_gflops(), trace.wrapper_cost_s())
        recorder.write_jsonl(OUT / f"{args.workload}-{args.seed}.trace.jsonl")
    else:
        setup_times = []

        def timed_setup():
            # Garbage from the last set-up is collected now, not inside
            # the next one's timing.
            gc.collect()
            start = time.perf_counter()
            stack = workload.setup()
            setup_times.append(time.perf_counter() - start)
            return stack

        # Half the set-ups run before the window and half after it, so
        # their median spans the run, not one moment of the host.
        for _ in range(SETUPS // 2 - 1):
            workload.close(timed_setup())
        outcome = measure(timed_setup())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup_times) < SETUPS:
            workload.close(timed_setup())
        reported = result["end_to_end"] = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": float(np.median(outcome.latencies_ms)),
            "throughput_per_s": outcome.throughput,
            "quality_rmse": outcome.quality,
            "peak_rss_mb": peak_rss_mb,
        }
        result["setup_times_s"] = setup_times
    metrics = {metric["name"]: (reported[metric["name"]], metric["unit"])
               for metric in spec["per_layer" if args.trace else "end_to_end"]}

    late_ms = loadgen.late_p99_ms(outcome.phases)
    # The highest of these percentiles with ten samples beyond it is
    # reported, but not gated: near the open loop's queueing knee it moves
    # several times as much as the host's speed does.
    samples = len(outcome.latencies_ms)
    tail = [q for q in TAILS if samples * (1 - q) >= 10][-1:]
    tail_ms = {f"p{round(q * 100)}": float(np.quantile(outcome.latencies_ms, q))
               for q in tail}
    result.update(
        errors=outcome.errors, loadgen_late_p99_ms=late_ms,
        valid=late_ms <= MAX_LATE_MS,
        latency_samples=samples, latency_tail_ms=tail_ms,
        phases=[{"name": p.name, "sent": len(p.requests), "ok": len(p.ok),
                 "failed": p.failed} for p in outcome.phases],
        telemetry=outcome.telemetry)
    (OUT / f"{args.workload}-{args.seed}.json").write_text(
        json.dumps(result, indent=2, default=_jsonable) + "\n")

    for error in outcome.errors:
        print(f"# check failed: {error}")
    if late_ms > MAX_LATE_MS:
        print(f"# invalid run: the load generator sent {late_ms:.1f} ms late "
              f"at p99 (limit {MAX_LATE_MS:.0f} ms)")
    print(f"# pinned to CPU {cpu}; {samples} latency samples"
          + "".join(f", {name} {ms:.2f} ms" for name, ms in tail_ms.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {float(value)!r} {unit}")
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not outcome.errors else 1


if __name__ == "__main__":
    sys.exit(main())
