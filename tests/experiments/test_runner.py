"""Experiment runner: tiny invocations of every paper-artifact function,
and the fit plan that trains each distinct HIRE once."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import HIREConfig, HIRETrainer, TrainerConfig
from repro.eval import build_eval_tasks
from repro.experiments import (
    EXPERIMENTS,
    HIREModel,
    prepare_workload,
    run_ablation,
    run_case_study,
    run_experiment,
    run_overall_performance,
    run_sampling_ablation,
    run_sensitivity,
    run_test_time,
)
from repro.experiments import runner


RESULTS = Path(__file__).resolve().parents[2] / "results"


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        assert set(EXPERIMENTS) == {
            "table3", "table4", "table5", "fig6", "fig7", "table6", "fig8", "fig9",
            "ablation_residual", "extension_igmc", "complexity_scaling",
        }

    def test_files_are_the_committed_results(self):
        """No orphan file in ``results/`` and no artifact file it lacks."""
        registry = sorted(name for spec in EXPERIMENTS.values() for name in spec.files)
        assert registry == sorted(path.name for path in RESULTS.iterdir())

    def test_every_artifact_writes_a_file(self):
        for spec in EXPERIMENTS.values():
            assert spec.files, spec.experiment_id
            assert not set(spec.quality) & set(spec.timing), spec.experiment_id

    def test_specs_have_workloads(self):
        for spec in EXPERIMENTS.values():
            assert spec.dataset in ("movielens", "bookcrossing", "douban")
            assert spec.paper_artifact

    def test_prepare_workload(self):
        dataset, split = prepare_workload(EXPERIMENTS["table3"], scale="fast", seed=0)
        assert dataset.name == "movielens-like"
        assert len(split.train_ratings()) > 0

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table9")


class TestOverallPerformance:
    def test_rows_schema(self):
        rows = run_overall_performance(
            EXPERIMENTS["table3"], scale="fast", max_tasks=2, seed=0,
            models=("NeuMF",))
        assert rows
        for row in rows:
            for key in ("scenario", "model", "k", "precision", "ndcg", "map"):
                assert key in row
            assert 0 <= row["precision"] <= 1

    def test_scenarios_covered(self):
        rows = run_overall_performance(
            EXPERIMENTS["table3"], scale="fast", max_tasks=2, seed=0,
            models=("NeuMF",))
        assert {r["scenario"] for r in rows} == {"user", "item", "both"}


class TestTestTime:
    def test_rows(self):
        rows = run_test_time(scale="fast", max_tasks=2, seed=0,
                             datasets=("movielens",), models=("NeuMF", "TaNP"))
        assert len(rows) == 2
        for row in rows:
            assert row["test_seconds"] > 0


class TestSweeps:
    def test_sensitivity_rows(self):
        rows = run_sensitivity(scale="fast", max_tasks=2, seed=0,
                               num_blocks=(1,), context_sizes=(16,),
                               scenarios=("user",))
        sweeps = {r["sweep"] for r in rows}
        assert sweeps == {"num_him_blocks", "context_size"}

    def test_ablation_rows(self):
        rows = run_ablation(scale="fast", max_tasks=2, seed=0, scenarios=("user",))
        variants = {r["variant"] for r in rows}
        assert "full model" in variants
        assert len(variants) == 7

    def test_sampling_rows(self):
        rows = run_sampling_ablation(scale="fast", max_tasks=2, seed=0,
                                     samplers=("neighborhood", "random"),
                                     scenarios=("user",))
        assert {r["sampler"] for r in rows} == {"neighborhood", "random"}


class TestCaseStudy:
    def test_outputs(self):
        out = run_case_study(scale="fast", seed=0, context_size=8)
        assert set(out["attention"]) == {"user", "item", "attr"}
        n = len(out["users"])
        m = len(out["items"])
        assert out["attention"]["user"].shape == (n, n)
        assert out["attention"]["item"].shape == (m, m)
        h = len(out["attribute_names"])
        assert out["attention"]["attr"].shape == (h, h)
        assert out["predictions"].shape == (n, m)
        # attention rows are probability distributions
        np.testing.assert_allclose(out["attention"]["user"].sum(axis=-1),
                                   np.ones(n), atol=1e-8)


SCENARIOS = ("user", "item", "both")
WORKLOAD = ("movielens", "fast", 0)


@pytest.fixture
def fits(monkeypatch):
    """A fresh fit plan whose grids train 2 steps; returns the list of
    ``HIRETrainer.fit`` calls, one (HIREConfig, TrainerConfig) per fit."""
    monkeypatch.setattr(runner, "_FITS", {})
    settings = runner._sweep_settings

    def two_steps(*args, **kwargs):
        config, trainer = settings(*args, **kwargs)
        return config, replace(trainer, steps=2)

    monkeypatch.setattr(runner, "_sweep_settings", two_steps)
    calls = []
    fit = HIRETrainer.fit

    def counting_fit(self, *args, **kwargs):
        calls.append((self.model.config, self.config))
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(HIRETrainer, "fit", counting_fit)
    return calls


def _changed(value):
    """A different valid value for a config field of the tiny configs."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return 0.3 if value is None else value / 2


class TestFitPlan:
    def test_three_scenarios_of_a_cell_train_one_model(self, fits):
        rows = run_sensitivity(max_tasks=2, num_blocks=(1,), context_sizes=(),
                               scenarios=SCENARIOS)
        assert [r["scenario"] for r in rows] == list(SCENARIOS)
        assert len(fits) == 1

    def test_memo_hit_reports_the_producing_fit_seconds(self, fits):
        rows = run_sensitivity(max_tasks=2, num_blocks=(1,), context_sizes=(),
                               scenarios=SCENARIOS)
        (_, seconds), = runner._FITS.values()
        assert seconds > 0
        assert [r["fit_seconds"] for r in rows] == [seconds] * len(SCENARIOS)

    def test_the_grids_default_point_trains_once(self, fits):
        rows = run_sensitivity(max_tasks=2, num_blocks=(2,), context_sizes=(48,),
                               scenarios=("user",))
        assert len(rows) == 2 and len(fits) == 1     # Fig. 7 K = 2, context 48
        run_ablation(max_tasks=2, scenarios=("user",))
        assert len(fits) == 1 + 6                    # all but the full model
        run_sampling_ablation(max_tasks=2, samplers=("neighborhood",),
                              scenarios=("user",))
        run_case_study(scale="fast", seed=0, context_size=12)
        assert len(fits) == 7

    def test_any_changed_fit_input_misses_the_memo(self, fits):
        dataset, split = prepare_workload(EXPERIMENTS["fig7"])
        config = HIREConfig(num_blocks=1, num_heads=1, attr_dim=4, seed=0)
        trainer = TrainerConfig(steps=1, batch_size=1, context_users=6,
                                context_items=6, seed=0)

        def trained(config=config, trainer=trainer, sampler="neighborhood",
                    workload=WORKLOAD):
            model = HIREModel(dataset, config, trainer, sampler=sampler)
            return runner._trained(model, workload, split)[0]

        base = trained()
        assert trained() is base and len(fits) == 1
        changes = [{"config": replace(config, **{f.name: _changed(getattr(config, f.name))})}
                   for f in fields(config)]
        changes += [{"trainer": replace(trainer,
                                        **{f.name: _changed(getattr(trainer, f.name))})}
                    for f in fields(trainer)]
        changes += [{"sampler": "random"}, {"workload": ("movielens", "fast", 1)}]
        for count, change in enumerate(changes, start=2):
            assert trained(**change) is not base, change
            assert len(fits) == count, change

    def test_shared_module_scores_as_private_fits(self, fits):
        dataset, split = prepare_workload(EXPERIMENTS["fig7"])
        config, trainer = runner._sweep_settings("fast", 0)
        for scenario in SCENARIOS:
            tasks = build_eval_tasks(split, scenario, min_query=5, seed=0, max_tasks=2)
            shared = HIREModel(dataset, config, trainer)
            private = HIREModel(dataset, config, trainer)
            runner._fit(shared, WORKLOAD, split, tasks)
            private.fit(split, tasks)
            for task in tasks:
                np.testing.assert_array_equal(shared.predict_task(task),
                                              private.predict_task(task))
        assert len(fits) == 1 + len(SCENARIOS)

    def test_attention_capture_leaves_memo_hits_bit_identical(self, fits):
        dataset, split = prepare_workload(EXPERIMENTS["fig9"])
        config, trainer = runner._sweep_settings("fast", 0, context=12)
        tasks = build_eval_tasks(split, "user", min_query=5, seed=0, max_tasks=2)

        def scores():
            model = HIREModel(dataset, config, trainer)
            runner._fit(model, WORKLOAD, split, tasks)
            return model.model, [model.predict_task(task) for task in tasks]

        module, before = scores()
        run_case_study(scale="fast", seed=0, context_size=12)
        hit, after = scores()
        assert hit is module and len(fits) == 1
        assert not any(getattr(block, layer).capture_attention
                       for block in module.blocks
                       for layer in ("user_attention", "item_attention", "attr_attention"))
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
