"""Per-layer metrics of a traced run: spans, service telemetry and counts.

Layers are named after the program's modules.  Time metrics come from the
spans the shims in ``trace.py`` record; ratios and counts come from the
telemetry the service already exposes (``stats()``, the engine's plan
counters).  ``*.busy_frac`` is a layer's share of the self time recorded
on threads other than the load thread (the service worker and the online
controller; the load thread itself when it is the only one, as in
``train``).  On those workers every batch and every round is a root span,
so the denominator is their whole busy time, uninstrumented work
included.  ``trace.overhead_frac`` prices the recorder itself: the cost of
one shimmed no-op call, times the number of spans, over the time the
spans cover.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from . import trace
from .loadgen import late_p99_ms


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.quantile(values, q)) if values.size else 0.0


def layer_metrics(outcome, spans, load_thread: str, gemm_peak: float,
                  wrapper_cost_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run, by its BENCHMARK.json name."""
    self_time = trace.self_times(spans)
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def duration(name: str) -> float:
        return sum(s.end - s.start for s in named[name])

    def mean_ms(name: str, per: int | None = None) -> float:
        """Span time of ``name`` per call, or per ``per`` units of work."""
        return _ratio(duration(name),
                      len(named[name]) if per is None else per) * 1e3

    def work(name: str, key: str) -> float:
        return sum((s.work or {}).get(key, 0) for s in named[name])

    def gflops(name: str) -> float:
        own = sum(self_time[s.id] for s in named[name])
        return _ratio(work(name, "flops"), own) / 1e9

    workers = {s.thread for s in spans} - {load_thread} or {load_thread}
    worker_time = sum(self_time[s.id] for s in spans if s.thread in workers)

    def busy(name: str) -> float:
        return _ratio(sum(self_time[s.id] for s in named[name]
                          if s.thread in workers), worker_time)

    tele = outcome.telemetry
    requests = [r for phase in outcome.phases for r in phase.requests]
    packed = [s for s in named["forward"] if (s.work or {}).get("packed")]
    real_cells = sum(s.work["real_cells"] for s in packed)
    padded_cells = sum(s.work["padded_cells"] for s in packed)
    steps = len(named["trainer.backward"])
    model_forwards = len(named["trainer.forward"])
    decoder_s = sum(self_time[s.id] for s in named["trainer.forward"])
    queue_wait = tele.get("queue_wait_ms", ())

    def share(part: str, *rest: str) -> float:
        """``tele[part]`` over the sum of ``tele[part]`` and ``tele[rest]``."""
        return _ratio(tele.get(part, 0),
                      sum(tele.get(key, 0) for key in (part, *rest)))

    return {
        "loadgen.sent": len(requests),
        "loadgen.ok": sum(r.error is None for r in requests),
        "loadgen.failed": sum(r.error is not None for r in requests),
        "loadgen.late_p99_ms": late_p99_ms(outcome.phases),
        "batcher.queue_wait_p50_ms": _quantile(queue_wait, 0.5),
        "batcher.queue_wait_p90_ms": _quantile(queue_wait, 0.9),
        "batcher.batch_size_mean": _ratio(tele.get("batched_requests", 0),
                                          tele.get("batches", 0)),
        "cache.context_hit_rate": share("cache_hits", "cache_misses"),
        "cache.frontier_hit_rate": share("frontier_hits", "frontier_misses"),
        "cache.invalidation_precision": share("invalidation_spared",
                                              "invalidation_evicted"),
        "cache.evicted": tele.get("cache_evicted", 0),
        "assemble.calls": len(named["assemble"]),
        "assemble.ms_per_call": mean_ms("assemble"),
        "assemble.busy_frac": busy("assemble"),
        "sample.calls": len(named["sample"]),
        "sample.ms_per_call": mean_ms("sample"),
        "forward.calls": len(named["forward"]),
        "forward.contexts_per_call": _ratio(work("forward", "contexts"),
                                            len(named["forward"])),
        "forward.ms_per_call": mean_ms("forward"),
        "forward.busy_frac": busy("forward"),
        "forward.gflops": gflops("forward"),
        "forward.peak_frac": _ratio(gflops("forward"), gemm_peak),
        "forward.plan_hit_rate": share("plan_hits", "plan_misses"),
        "forward.workspace_mb": tele.get("workspace_bytes", 0) / 2 ** 20,
        "pack.calls": len(packed),
        "pack.contexts": sum(s.work["contexts"] for s in packed),
        "pack.pad_waste": _ratio(padded_cells - real_cells, real_cells),
        "dataplane.apply_ms_p50": _quantile(
            [(s.end - s.start) * 1e3 for s in named["dataplane.apply"]], 0.5),
        "dataplane.update_ms_p50": _quantile(tele.get("update_ms", ()), 0.5),
        "dataplane.deltas_applied": tele.get("deltas_applied", 0),
        "trainer.sample_ms": mean_ms("trainer.sample", steps),
        "trainer.forward_ms": mean_ms("trainer.forward", steps),
        "trainer.backward_ms": mean_ms("trainer.backward", steps),
        "trainer.optim_ms": mean_ms("trainer.optim", steps),
        "trainer.ckpt_s": _quantile(tele.get("ckpt_s", ()), 0.5),
        "model.encoder_ms": mean_ms("model.encoder", model_forwards),
        "model.mbu_ms": mean_ms("model.mbu", model_forwards),
        "model.mbi_ms": mean_ms("model.mbi", model_forwards),
        "model.mba_ms": mean_ms("model.mba", model_forwards),
        "model.decoder_ms": _ratio(decoder_s, model_forwards) * 1e3,
        "model.mbu_gflops": gflops("model.mbu"),
        "model.mbi_gflops": gflops("model.mbi"),
        "model.mba_gflops": gflops("model.mba"),
        "online.train_ms": mean_ms("online.train"),
        "online.probe_ms": mean_ms("online.probe"),
        "online.swap_ms": mean_ms("online.swap"),
        "online.promotions": len(named["online.swap"]),
        "online.round_s": _quantile(tele.get("round_s", ()), 0.5),
        "gemm.peak_gflops": gemm_peak,
        "trace.overhead_frac": _ratio(wrapper_cost_s * len(spans),
                                      sum(self_time.values())),
    }
