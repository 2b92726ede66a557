"""``repro.core`` — the paper's contribution: HIRE and its components.

* :mod:`repro.core.sampling` — prediction-context samplers (§IV-B).
* :mod:`repro.core.context` — the n × m context block with rating masks.
* :mod:`repro.core.encoder` — Eq. 6-9 attribute/rating embeddings.
* :mod:`repro.core.him` — the Heterogeneous Interaction Module (§IV-C).
* :mod:`repro.core.model` — HIRE: encoder → K HIMs → decoder.
* :mod:`repro.core.trainer` — Algorithm 1 with LAMB + Lookahead.
* :mod:`repro.core.predictor` — cold-start inference over eval tasks.
"""

from .context import PredictionContext, build_context
from .encoder import ContextEncoder
from .him import HIM
from .model import HIRE, HIREConfig
from .predictor import (
    AssembledChunk,
    HIREPredictor,
    assemble_user_chunks,
    build_serving_graph,
    ensure_targets,
    task_chunk_rng,
)
from .sampling import (
    MAX_CONTEXT_RETRIES,
    ContextSampler,
    FeatureSimilaritySampler,
    NeighborhoodSampler,
    RandomSampler,
    STEP_RNG_DOMAIN,
    derive_step_rng,
    sample_training_context,
    sampler_by_name,
)
from .trainer import HIRETrainer, TrainerConfig

__all__ = [
    "PredictionContext",
    "build_context",
    "ContextEncoder",
    "HIM",
    "HIRE",
    "HIREConfig",
    "HIREPredictor",
    "AssembledChunk",
    "assemble_user_chunks",
    "build_serving_graph",
    "ensure_targets",
    "task_chunk_rng",
    "ContextSampler",
    "NeighborhoodSampler",
    "RandomSampler",
    "FeatureSimilaritySampler",
    "sampler_by_name",
    "sample_training_context",
    "MAX_CONTEXT_RETRIES",
    "derive_step_rng",
    "STEP_RNG_DOMAIN",
    "HIRETrainer",
    "TrainerConfig",
]
