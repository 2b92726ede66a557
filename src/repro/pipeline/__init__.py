"""``repro.pipeline`` — parallel training-context prefetching.

Profiling (``docs/observability.md``) shows ``train_step`` spending a
large share of its wall-clock inside the ``sample`` span: the trainer
draws its mini-batch of BFS contexts sequentially before any forward work
starts.  This package overlaps that sampling with optimisation without
giving up determinism:

* :mod:`~repro.pipeline.rng` — :func:`derive_step_rng`: each
  ``(seed, step, slot)`` keys its own generator, so a context is a pure
  function of the step index (the training-side twin of
  :func:`repro.core.task_chunk_rng`);
* :mod:`~repro.pipeline.source` — :class:`ContextBatchSource`: one step's
  mini-batch of contexts from those derived generators;
* :mod:`~repro.pipeline.buffer` — :class:`PrefetchBuffer`: a bounded
  claim/publish/take reorder buffer with producer backpressure,
  drain-aware shutdown, and worker-failure propagation (built on the
  shared :mod:`repro.concurrency` primitives);
* :mod:`~repro.pipeline.runner` — :class:`ContextPipeline`: worker
  threads keeping the buffer full ahead of
  ``HIRETrainer.fit``, with hit/starvation/wait/depth metrics through
  :mod:`repro.obs`.

The determinism contract: with ``TrainerConfig.per_step_rng`` (implied by
``prefetch_workers > 0``), ``fit``'s ``loss_history`` is **bit-identical**
for any worker count or buffer depth — see
``docs/training_pipeline.md`` and ``benchmarks/bench_pipeline_throughput.py``.
"""

from .buffer import PipelineError, PrefetchBuffer
from .rng import STEP_RNG_DOMAIN, derive_step_rng
from .runner import ContextPipeline
from .source import ContextBatchSource

__all__ = [
    "derive_step_rng",
    "STEP_RNG_DOMAIN",
    "PrefetchBuffer",
    "PipelineError",
    "ContextBatchSource",
    "ContextPipeline",
]
