"""``repro.experiments`` — the per-table/figure reproduction harness."""

from .compare import compare_overall, render_comparison, shape_checks
from .configs import DATASET_SCALES, EXPERIMENTS, ExperimentSpec
from .paper_numbers import (
    PAPER_FINDINGS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLE6,
    paper_cell,
)
from .models import HIREModel, MODEL_NAMES, create_model, models_for_dataset
from .runner import (
    prepare_workload,
    run_ablation,
    run_case_study,
    run_complexity_scaling,
    run_experiment,
    run_overall_performance,
    run_residual_ablation,
    run_sampling_ablation,
    run_sensitivity,
    run_test_time,
)
from .tables import (
    render_ablation_table,
    render_artifact,
    render_attention_matrix,
    render_overall_table,
    render_sweep_table,
    render_timing_table,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "DATASET_SCALES",
    "compare_overall",
    "render_comparison",
    "shape_checks",
    "paper_cell",
    "PAPER_FINDINGS",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_TABLE6",
    "HIREModel",
    "MODEL_NAMES",
    "create_model",
    "models_for_dataset",
    "prepare_workload",
    "run_experiment",
    "run_overall_performance",
    "run_test_time",
    "run_sensitivity",
    "run_ablation",
    "run_sampling_ablation",
    "run_residual_ablation",
    "run_case_study",
    "run_complexity_scaling",
    "render_artifact",
    "render_overall_table",
    "render_ablation_table",
    "render_timing_table",
    "render_sweep_table",
    "render_attention_matrix",
]
