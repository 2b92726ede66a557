"""Model registry: every evaluated system behind one factory interface.

:class:`HIREModel` adapts the core HIRE pipeline (trainer + predictor) to
the :class:`~repro.baselines.base.RatingModel` contract the evaluation
protocol expects, so HIRE and the ten baselines are scored identically.

:func:`create_model` builds any system by name with a *speed preset*:
``"fast"`` keeps CI and pytest-benchmark runs short, ``"full"`` trains
longer for report-quality numbers.  Both presets use the same
architectures — only step counts change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import (
    AFN,
    MAMO,
    DeepFM,
    GraphHINGE,
    GraphRec,
    MeLU,
    MetaHIN,
    NeuMF,
    RatingModel,
    TaNP,
    WideDeep,
)
from ..core import (
    HIRE,
    HIREConfig,
    HIREPredictor,
    HIRETrainer,
    TrainerConfig,
    sampler_by_name,
)
from ..data.schema import RatingDataset
from ..data.splits import ColdStartSplit
from ..eval.tasks import EvalTask

__all__ = ["HIREModel", "MODEL_NAMES", "create_model", "models_for_dataset"]


@dataclass
class _Preset:
    hire_steps: int
    pairwise_steps: int
    episodes: int
    graph_steps: int
    context_size: int
    hire_blocks: int
    hire_heads: int
    hire_attr_dim: int


# The "fast" preset trades the paper's exact capacity (3 blocks × 8 heads ×
# f=16, context 32) for a compact configuration that trains to a better
# optimum in CPU-benchmark time; "full" restores the paper's §VI-A setting.
_PRESETS = {
    "fast": _Preset(hire_steps=400, pairwise_steps=300, episodes=150,
                    graph_steps=60, context_size=16,
                    hire_blocks=2, hire_heads=4, hire_attr_dim=8),
    "full": _Preset(hire_steps=1500, pairwise_steps=2000, episodes=800,
                    graph_steps=400, context_size=32,
                    hire_blocks=3, hire_heads=8, hire_attr_dim=16),
}


class HIREModel(RatingModel):
    """HIRE behind the shared fit/predict_task interface."""

    name = "HIRE"

    def __init__(self, dataset: RatingDataset, config: HIREConfig | None = None,
                 trainer_config: TrainerConfig | None = None,
                 sampler: str = "neighborhood", seed: int = 0,
                 predict_reveal_fraction: float = 0.2,
                 num_context_samples: int = 3):
        self.dataset = dataset
        self.config = config or HIREConfig(seed=seed)
        self.trainer_config = trainer_config or TrainerConfig(seed=seed)
        self.sampler_name = sampler
        self.seed = seed
        # Test contexts reveal a fifth of their warm ratings: inside the
        # 0.1-0.3 range the presets train on (the paper's p is 0.1).
        self.predict_reveal_fraction = predict_reveal_fraction
        self.num_context_samples = num_context_samples
        self.model: HIRE | None = None
        self.predictor: HIREPredictor | None = None

    def fit(self, split: ColdStartSplit, tasks: list[EvalTask]) -> None:
        self.attach(self.train(split), split, tasks)

    def train(self, split: ColdStartSplit) -> HIRE:
        """A freshly trained module; training reads no eval task."""
        model = HIRE(self.dataset, self.config)
        HIRETrainer(model, split, sampler=sampler_by_name(self.sampler_name, self.dataset),
                    config=self.trainer_config).fit()
        return model

    def attach(self, model: HIRE, split: ColdStartSplit,
               tasks: list[EvalTask]) -> None:
        """Score ``tasks`` with the trained ``model``."""
        self.model = model
        self.predictor = HIREPredictor(
            model, split, tasks,
            sampler=sampler_by_name(self.sampler_name, self.dataset),
            context_users=self.trainer_config.context_users,
            context_items=self.trainer_config.context_items,
            reveal_fraction=self.predict_reveal_fraction,
            num_context_samples=self.num_context_samples,
            seed=self.seed,
        )

    def predict_task(self, task: EvalTask) -> np.ndarray:
        if self.predictor is None:
            raise RuntimeError("HIRE: fit() must run before predict_task()")
        return self.predictor.predict_task(task)


MODEL_NAMES = (
    "HIRE", "NeuMF", "Wide&Deep", "DeepFM", "AFN",
    "GraphRec", "GraphHINGE", "MetaHIN", "MAMO", "TaNP", "MeLU",
)


def create_model(name: str, dataset: RatingDataset, seed: int = 0,
                 preset: str = "fast", **overrides) -> RatingModel:
    """Instantiate a system by its paper name."""
    if preset not in _PRESETS:
        raise KeyError(f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}")
    p = _PRESETS[preset]
    key = name.lower()
    if key == "hire":
        config = overrides.pop("config", None) or HIREConfig(
            num_blocks=p.hire_blocks, num_heads=p.hire_heads,
            attr_dim=p.hire_attr_dim, seed=seed,
        )
        trainer_config = overrides.pop("trainer_config", None) or TrainerConfig(
            steps=p.hire_steps, context_users=p.context_size,
            context_items=p.context_size, base_lr=5e-3,
            reveal_fraction=0.1, reveal_fraction_high=0.3, seed=seed,
        )
        sampler = overrides.pop("sampler", "neighborhood")
        return HIREModel(dataset, config=config, trainer_config=trainer_config,
                         sampler=sampler, seed=seed, **overrides)
    if key == "neumf":
        return NeuMF(dataset, steps=p.pairwise_steps, seed=seed, **overrides)
    if key in ("wide&deep", "widedeep", "wide_deep"):
        return WideDeep(dataset, steps=p.pairwise_steps, seed=seed, **overrides)
    if key == "deepfm":
        return DeepFM(dataset, steps=p.pairwise_steps, seed=seed, **overrides)
    if key == "afn":
        return AFN(dataset, steps=p.pairwise_steps, seed=seed, **overrides)
    if key == "graphrec":
        return GraphRec(dataset, steps=p.graph_steps, seed=seed, **overrides)
    if key == "graphhinge":
        return GraphHINGE(dataset, steps=p.graph_steps, seed=seed, **overrides)
    if key == "igmc":
        from ..baselines import IGMC
        return IGMC(dataset, steps=p.graph_steps, seed=seed, **overrides)
    if key == "metahin":
        return MetaHIN(dataset, episodes=p.episodes, seed=seed, **overrides)
    if key == "mamo":
        return MAMO(dataset, episodes=p.episodes, seed=seed, **overrides)
    if key == "tanp":
        return TaNP(dataset, episodes=p.episodes, seed=seed, **overrides)
    if key == "melu":
        return MeLU(dataset, episodes=p.episodes, seed=seed, **overrides)
    raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def models_for_dataset(dataset: RatingDataset) -> tuple[str, ...]:
    """The systems the paper evaluates on a given dataset profile.

    GraphRec needs a social graph (Douban only); GraphHINGE and MetaHIN need
    rich attributes for an HIN (MovieLens only) — §VI-A.
    """
    base = ["NeuMF", "Wide&Deep", "DeepFM", "AFN"]
    if dataset.social_edges is not None:
        base.append("GraphRec")
    if dataset.num_user_attributes >= 3 and dataset.num_item_attributes >= 3:
        base.extend(["GraphHINGE", "MetaHIN"])
    base.extend(["MAMO", "TaNP", "MeLU", "HIRE"])
    return tuple(base)
