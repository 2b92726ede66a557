"""HIRE: Heterogeneous Interaction Modeling for Cold-Start Rating Prediction.

A full reproduction of the ICDE 2025 paper "All-in-One: Heterogeneous
Interaction Modeling for Cold-Start Rating Prediction" (Fang et al.),
including:

* ``repro.nn`` — a from-scratch autograd/NN substrate on numpy (MHSA, LAMB,
  Lookahead, schedulers) replacing PyTorch,
* ``repro.data`` — dataset schema, synthetic Table II workloads, cold-start
  splits, the rating bipartite graph and an HIN builder,
* ``repro.core`` — HIRE itself: context sampling, the Heterogeneous
  Interaction Module, training (Algorithm 1) and cold-start inference,
* ``repro.baselines`` — the ten comparison systems of §VI-A,
* ``repro.eval`` — Precision/NDCG/MAP@k and the uniform protocol,
* ``repro.experiments`` — a registry regenerating every table and figure,
* ``repro.obs`` — telemetry: profiling spans, metrics, structured run logs,
* ``repro.serve`` — online inference: model registry with hot swap, request
  micro-batching, context caching, and backpressure,
* ``repro.online`` — the incremental-learning loop: rating-delta log,
  bounded bit-reproducible fine-tune rounds, probe-gated promotion with
  rollback, zero-downtime hot swaps,
* ``repro.concurrency`` — the worker-pool primitives shared by the serving,
  telemetry and online layers.

Quickstart::

    from repro.data import movielens_like, make_cold_start_split
    from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig

    dataset = movielens_like(num_users=200, num_items=150, seed=0)
    split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
    model = HIRE(dataset, HIREConfig(num_blocks=3))
    HIRETrainer(model, split, config=TrainerConfig(steps=100)).fit()
"""

__version__ = "1.0.0"

from . import baselines, concurrency, core, data, eval, experiments, nn, obs
from . import online, serve

__all__ = ["nn", "data", "core", "baselines", "eval", "experiments", "obs",
           "serve", "online", "concurrency", "__version__"]
