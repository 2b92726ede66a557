"""Experiment registry: one entry per artifact in ``results/`` (DESIGN.md §4).

Each :class:`ExperimentSpec` records the workload (dataset profile and
scale), the systems compared, the scenarios and metrics, the evaluation
tasks per scenario and the ``results/`` files the artifact writes — enough
for :func:`repro.experiments.run_experiment` and
:func:`repro.experiments.render_artifact` to regenerate it, from the CLI
and from ``benchmarks/`` alike.  Scales are parameterised: the ``fast``
scale keeps pytest-benchmark runs in seconds, ``full`` approaches the
paper's setting as closely as CPU allows.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentSpec", "EXPERIMENTS", "DATASET_SCALES"]

# Dataset sizes per run scale.  The paper's datasets are 10-100× larger;
# profiles keep the Table II attribute schemas.  Per-user rating counts are
# raised above the real datasets' sparsity so that per-user top-k lists at
# this scale are long enough to discriminate models (documented in
# EXPERIMENTS.md).
DATASET_SCALES = {
    "fast": {
        "num_users": 150,
        "num_items": 100,
        "ratings_per_user": {"movielens": 40.0, "douban": 30.0, "bookcrossing": 25.0},
    },
    "full": {
        "num_users": 400,
        "num_items": 300,
        "ratings_per_user": {"movielens": 60.0, "douban": 45.0, "bookcrossing": 35.0},
    },
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One artifact's protocol and the ``results/`` files it writes."""

    experiment_id: str
    paper_artifact: str
    description: str
    dataset: str                      # profile name for repro.data.dataset_by_name
    quality: tuple[str, ...] = ()     # files a rerun reproduces byte for byte
    timing: tuple[str, ...] = ()      # files holding wall-clock readings
    max_tasks: int | None = None      # evaluation tasks per scenario (None = all)
    scenarios: tuple[str, ...] = ("user", "item", "both")
    ks: tuple[int, ...] = (5, 7, 10)
    models: tuple[str, ...] = ()      # empty -> models_for_dataset(...)

    @property
    def files(self) -> tuple[str, ...]:
        """Every file the artifact writes, quality first."""
        return self.quality + self.timing


EXPERIMENTS: dict[str, ExperimentSpec] = {spec.experiment_id: spec for spec in (
    ExperimentSpec(
        "table3", "Table III",
        "Overall performance, three cold-start scenarios, MovieLens-1M",
        dataset="movielens", quality=("table3_movielens.txt",), max_tasks=12),
    ExperimentSpec(
        "table4", "Table IV",
        "Overall performance, three cold-start scenarios, Bookcrossing",
        dataset="bookcrossing", quality=("table4_bookcrossing.txt",), max_tasks=12),
    ExperimentSpec(
        "table5", "Table V",
        "Overall performance, three cold-start scenarios, Douban",
        dataset="douban", quality=("table5_douban.txt",), max_tasks=12),
    ExperimentSpec(
        "fig6", "Fig. 6", "Total test time per method (user cold-start)",
        dataset="movielens", timing=("fig6_test_time.txt", "fig6_test_time.svg"),
        max_tasks=5, scenarios=("user",), ks=(5,)),
    ExperimentSpec(
        "fig7", "Fig. 7", "Sensitivity: number of HIM blocks and context size",
        dataset="movielens",
        quality=("fig7_sensitivity.txt", "fig7_blocks.svg", "fig7_context.svg"),
        max_tasks=5, ks=(5,), models=("HIRE",)),
    ExperimentSpec(
        "table6", "Table VI", "Ablation of the three attention layers on MovieLens-1M",
        dataset="movielens", quality=("table6_ablation.txt",),
        max_tasks=5, ks=(5,), models=("HIRE",)),
    ExperimentSpec(
        "fig8", "Fig. 8", "Impact of context sampling strategies on MovieLens-1M",
        dataset="movielens", quality=("fig8_sampling.txt", "fig8_sampling.svg"),
        max_tasks=5, ks=(5,), models=("HIRE",)),
    ExperimentSpec(
        "fig9", "Fig. 9", "Case study: learned attention matrices (MBU / MBI / MBA)",
        dataset="movielens",
        quality=("fig9_case_study.txt", "fig9_user.svg", "fig9_item.svg",
                 "fig9_attr.svg"),
        scenarios=("user",), ks=(5,), models=("HIRE",)),
    ExperimentSpec(
        "ablation_residual", "DESIGN §6",
        "Residual and pre-layer-norm around HIM's attention (our choice, "
        "not the paper's), user cold-start",
        dataset="movielens", quality=("ablation_residual.txt",), max_tasks=8),
    ExperimentSpec(
        "extension_igmc", "§IV-A",
        "Extension: HIRE vs IGMC inductive matrix completion, user cold-start",
        dataset="movielens", quality=("extension_igmc.txt",),
        timing=("extension_igmc_seconds.txt",), max_tasks=8,
        # Table III's UC cell: its k = 10 sets the min_query of 8.
        scenarios=("user",), models=("IGMC", "HIRE")),
    ExperimentSpec(
        "complexity_scaling", "§V-B",
        "Forward time as K, the context size and the attribute width grow",
        dataset="movielens", timing=("complexity_scaling.txt",)),
)}
