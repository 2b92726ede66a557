"""The experiments CLI: argument handling, and the artifact files it
writes — the same files, byte for byte, as the benchmarks write."""

import importlib.util
from pathlib import Path

import pytest

import repro.experiments.cli as cli
from repro.experiments import EXPERIMENTS, render_artifact, runner
from repro.experiments.cli import build_parser, main

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Benchmark:
    """The slice of pytest-benchmark's fixture the benchmark files use."""

    def __init__(self):
        self.extra_info = {}

    def pedantic(self, target, rounds, iterations):
        return target()


FIG8_ROWS = [{"sampler": sampler, "scenario": scenario,
              "precision": 0.6, "ndcg": 0.9 - 0.1 * rank, "map": 0.5}
             for rank, sampler in enumerate(("neighborhood", "random", "feature"))
             for scenario in ("user", "item", "both")]


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig9" in out
        assert "Table III" in out
        assert "complexity_scaling" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_svg_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9", "--svg"])


class TestRun:
    def test_run_writes_artifact(self, tmp_path, capsys):
        code = main(["run", "fig9", "--scale", "fast", "-o", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "fig9_case_study.txt").read_text()
        assert "MBU" in text and "MBA" in text
        assert "predicted vs actual" in text
        assert "Fig. 9" in capsys.readouterr().out
        # SVGs are always written: the three heatmaps.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            EXPERIMENTS["fig9"].files)

    def test_cli_and_benchmark_write_the_same_files(self, tmp_path, monkeypatch):
        """With a stubbed runner, ``cli run fig8 -o DIR`` and
        ``benchmarks/bench_fig8_sampling.py`` write the same names and bytes."""
        def fake_run(experiment_id, scale="fast", seed=0, max_tasks=None):
            assert experiment_id == "fig8"
            return FIG8_ROWS

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert main(["run", "fig8", "-o", str(tmp_path / "cli")]) == 0

        bench = _load(BENCHMARKS / "bench_fig8_sampling.py")
        monkeypatch.setattr(bench, "run_experiment", fake_run)
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        save = _load(BENCHMARKS / "conftest.py").save.__wrapped__(bench_dir)
        bench.test_fig8_sampling_strategies(_Benchmark(), save)

        written = {p.name: p.read_bytes() for p in (tmp_path / "cli").iterdir()}
        assert written == {p.name: p.read_bytes() for p in bench_dir.iterdir()}
        assert written == {name: text.encode()
                           for name, text in render_artifact("fig8", FIG8_ROWS).items()}
        assert sorted(written) == ["fig8_sampling.svg", "fig8_sampling.txt"]

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("experiment_id, runner_name, count", [
        ("table3", "run_overall_performance", 12),
        ("table6", "run_ablation", 5),
    ])
    def test_runner_receives_the_artifacts_own_count(
            self, monkeypatch, capsys, command, experiment_id, runner_name, count):
        seen = []

        def fake_runner(*args, max_tasks, **kwargs):
            seen.append(max_tasks)
            return []

        monkeypatch.setattr(runner, runner_name, fake_runner)
        assert main([command, experiment_id]) == 0
        assert main([command, experiment_id, "--max-tasks", "2"]) == 0
        assert seen == [count, 2]


class TestCompareCommand:
    def test_compare_writes_verdicts(self, tmp_path, capsys, monkeypatch):
        def fake_run(experiment_id, scale="fast", seed=0, **kwargs):
            rows = []
            for scenario in ("user", "item", "both"):
                rows.append({"scenario": scenario, "model": "HIRE", "k": 5,
                             "precision": 0.6, "ndcg": 0.9, "map": 0.5})
                rows.append({"scenario": scenario, "model": "NeuMF", "k": 5,
                             "precision": 0.3, "ndcg": 0.6, "map": 0.2})
            return rows

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        code = main(["compare", "table4", "-o", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper N@5" in out and "PASS" in out or "MISS" in out
        assert (tmp_path / "table4_compare.txt").exists()

    def test_compare_rejects_figures(self, capsys):
        assert main(["compare", "fig6"]) == 2
        assert "no paper numbers" in capsys.readouterr().err


class TestRenderArtifact:
    def test_overall(self):
        rows = [{"scenario": "user", "model": "HIRE", "k": 5,
                 "precision": 0.5, "ndcg": 0.9, "map": 0.4}]
        assert "HIRE" in render_artifact("table3", rows)["table3_movielens.txt"]

    def test_fig6_is_timing(self):
        rows = [{"dataset": "movielens", "model": "HIRE", "test_seconds": 0.5}]
        files = render_artifact("fig6", rows)
        assert set(files) == set(EXPERIMENTS["fig6"].timing)
        assert "HIRE" in files["fig6_test_time.txt"]

    def test_fig7_splits_sweeps(self):
        rows = [
            {"sweep": "num_him_blocks", "value": 3, "scenario": "user",
             "precision": 0.5, "ndcg": 0.9, "map": 0.4},
            {"sweep": "context_size", "value": 32, "scenario": "user",
             "precision": 0.5, "ndcg": 0.9, "map": 0.4},
        ]
        text = render_artifact("fig7", rows)["fig7_sensitivity.txt"]
        assert "HIM blocks sweep" in text and "Context size sweep" in text

    def test_igmc_seconds_leave_the_quality_file(self):
        rows = [{"model": model, "k": 5, "precision": 0.5, "ndcg": 0.9,
                 "map": 0.4, "fit_seconds": 12.3, "predict_seconds": 0.4}
                for model in ("IGMC", "HIRE")]
        files = render_artifact("extension_igmc", rows)
        assert "12.3" not in files["extension_igmc.txt"]
        assert "0.9000" in files["extension_igmc.txt"]
        assert "12.3s" in files["extension_igmc_seconds.txt"]
        assert EXPERIMENTS["extension_igmc"].timing == ("extension_igmc_seconds.txt",)

    def test_files_end_with_a_newline(self):
        files = render_artifact("complexity_scaling", {"K=1": 0.001})
        assert files == {"complexity_scaling.txt": "     K=1:      1.00 ms\n"}

    def test_unknown(self):
        with pytest.raises(KeyError):
            render_artifact("fig99", [])


class TestServeCommand:
    def test_serve_replays_and_reports(self, tmp_path, capsys):
        code = main(["serve", "--requests", "6", "--max-tasks", "4",
                     "--train-steps", "2", "--batch-size", "4",
                     "-o", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve replay" in out
        assert "req/s" in out
        assert "serve.latency_seconds" in out
        text = (tmp_path / "serve.txt").read_text()
        assert "serve.requests_total" in text

    def test_serve_with_update_bursts(self, capsys):
        code = main(["serve", "--requests", "6", "--max-tasks", "4",
                     "--train-steps", "2",
                     "--update-bursts", "1", "--burst-size", "2"])
        assert code == 0
        out = capsys.readouterr().out
        # The summary line surfaces applied/skipped delta counts.
        assert "applied" in out and "skipped" in out
        assert "across 1 bursts" in out

    def test_serve_from_checkpoint_and_workload_file(self, tmp_path, capsys):
        from repro.core import HIRE, HIREConfig
        from repro.data import dataset_by_name, make_cold_start_split
        from repro.eval.tasks import build_eval_tasks
        from repro.experiments.configs import DATASET_SCALES
        from repro.serve import save_workload, synthesize_workload

        sizes = DATASET_SCALES["fast"]
        dataset = dataset_by_name(
            "movielens", seed=0,
            num_users=sizes["num_users"], num_items=sizes["num_items"],
            ratings_per_user=sizes["ratings_per_user"]["movielens"])
        model = HIRE(dataset, HIREConfig(num_blocks=1, num_heads=2,
                                         attr_dim=4, seed=0))
        checkpoint = model.save(tmp_path / "model")

        split = make_cold_start_split(dataset, 0.2, 0.2, seed=0)
        tasks = build_eval_tasks(split, "user", min_query=2, seed=0,
                                 max_tasks=4)
        workload = save_workload(tmp_path / "traffic.jsonl",
                                 synthesize_workload(tasks, 5, seed=0))

        code = main(["serve", "--checkpoint", str(checkpoint),
                     "--workload", str(workload)])
        assert code == 0
        out = capsys.readouterr().out
        assert "model=checkpoint" in out
        assert "5 requests" in out
