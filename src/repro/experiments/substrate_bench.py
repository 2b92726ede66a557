"""Telemetry overhead of the ``repro.nn`` training path.

Times the same seeded :meth:`HIRETrainer.fit` with telemetry off and with
every sink on, at the paper config (n = m = 32 contexts, K = 3 HIM blocks,
8 heads × 16 dims) under the float32 dtype policy.

``benchmarks/bench_substrate_micro.py`` writes the result as
``BENCH_substrate.json`` at the repo root; the ``--smoke`` mode (and the
tier-1 smoke test) runs a shrunken config in a couple of seconds without
touching the JSON.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from .. import nn, obs
from ..core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from ..data import make_cold_start_split, movielens_like

__all__ = [
    "run_observability_overhead",
    "write_bench_json",
    "BENCH_FILENAME",
]

BENCH_FILENAME = "BENCH_substrate.json"


def _paper_setup(smoke: bool):
    if smoke:
        dataset = movielens_like(num_users=60, num_items=50, seed=0,
                                 ratings_per_user=15.0)
        model_cfg = dict(num_blocks=1, num_heads=2, attr_dim=4, seed=0)
        train_cfg = dict(batch_size=1, context_users=8, context_items=8,
                         seed=0)
    else:
        dataset = movielens_like(num_users=200, num_items=150, seed=0,
                                 ratings_per_user=30.0)
        model_cfg = dict(num_blocks=3, num_heads=8, attr_dim=16, seed=0)
        train_cfg = dict(batch_size=4, context_users=32, context_items=32,
                         seed=0)
    split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
    return dataset, split, model_cfg, train_cfg


def _time_fit(dataset, split, model_cfg: dict, train_cfg: dict,
              observers=None) -> dict:
    """Wall-time one full ``fit`` (fresh model/trainer) and return stats."""
    model = HIRE(dataset, HIREConfig(**model_cfg))
    trainer = HIRETrainer(model, split, config=TrainerConfig(**train_cfg),
                          observers=observers)
    trainer.train_step()  # warm-up (first-touch allocations, BLAS init)
    steps = train_cfg["steps"]
    start = time.perf_counter()
    trainer.fit()
    seconds = time.perf_counter() - start
    return {
        "fit_seconds": seconds,
        "train_step_seconds": seconds / steps,
        "loss_history": [float(v) for v in trainer.loss_history],
    }


def run_observability_overhead(smoke: bool = False,
                               steps: int | None = None) -> dict:
    """Instrumented-vs-uninstrumented ``train_step`` overhead.

    Times the same seeded ``fit`` three times in float32:

    * **disabled** — no observers, profiling off, op hooks off: the
      telemetry code is present but every switch is cold (the ≤ 1 %
      acceptance configuration).
    * **sinks and spans** — every sink at once: JSONL recorder, metrics
      registry, console sink (to ``os.devnull``) and profiling spans (the
      ≤ 5 % configuration).
    * **sinks, spans and op hooks** — the same plus per-op hooks.

    All runs share the seed, so the identical ``loss_history`` doubles as
    the passivity check; the result records ``trajectories_identical``.
    """
    dataset, split, model_cfg, train_cfg = _paper_setup(smoke)
    train_cfg = dict(train_cfg, steps=steps or (8 if smoke else 40))

    with nn.dtype_policy(np.float32):
        disabled = _time_fit(dataset, split, model_cfg, train_cfg)

        with tempfile.TemporaryDirectory() as tmp, \
                open(os.devnull, "w", encoding="utf-8") as devnull:
            recorder = obs.RunRecorder(Path(tmp) / "bench_run.jsonl",
                                       config=train_cfg)
            observers = [
                obs.RecorderSink(recorder),
                obs.MetricsSink(obs.MetricsRegistry()),
                obs.ConsoleSink(log_every=10, stream=devnull),
            ]
            with obs.profiling(True):
                sinks_only = _time_fit(dataset, split, model_cfg, train_cfg,
                                       observers=observers)
            recorder.close()

            recorder = obs.RunRecorder(Path(tmp) / "bench_run_ophooks.jsonl",
                                       config=train_cfg)
            observers = [
                obs.RecorderSink(recorder),
                obs.MetricsSink(obs.MetricsRegistry()),
                obs.ConsoleSink(log_every=10, stream=devnull),
            ]
            with obs.profiling(True), obs.ophooks.op_hooks():
                enabled = _time_fit(dataset, split, model_cfg, train_cfg,
                                    observers=observers)
            recorder.close()

    identical = (disabled["loss_history"] == sinks_only["loss_history"]
                 == enabled["loss_history"])
    payload = {
        "benchmark": "substrate_micro",
        "smoke": smoke,
        "config": {
            "context_users": train_cfg["context_users"],
            "context_items": train_cfg["context_items"],
            "batch_size": train_cfg["batch_size"],
            "num_blocks": model_cfg["num_blocks"],
            "num_heads": model_cfg["num_heads"],
            "attr_dim": model_cfg["attr_dim"],
        },
        "steps_timed": train_cfg["steps"],
        "trajectories_identical": identical,
    }
    for name, run in (("disabled", disabled), ("sinks_and_spans", sinks_only),
                      ("sinks_spans_and_ophooks", enabled)):
        payload[name] = {"fit_seconds": run["fit_seconds"],
                         "train_step_seconds": run["train_step_seconds"]}
    payload["overhead_sinks_and_spans"] = (
        sinks_only["train_step_seconds"] / disabled["train_step_seconds"] - 1.0)
    payload["overhead_sinks_spans_and_ophooks"] = (
        enabled["train_step_seconds"] / disabled["train_step_seconds"] - 1.0)
    return payload


def write_bench_json(payload: dict, repo_root: Path | None = None) -> Path:
    """Write the trajectory file ``BENCH_substrate.json`` at the repo root."""
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    path = repo_root / BENCH_FILENAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
