"""The experiments CLI: argument handling and artifact rendering."""

import pytest

from repro.experiments.cli import build_parser, main, render_experiment


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig9" in out
        assert "Table III" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestRun:
    def test_run_writes_artifact(self, tmp_path, capsys):
        code = main(["run", "fig9", "--scale", "fast", "-o", str(tmp_path), "--svg"])
        assert code == 0
        artifact = tmp_path / "fig9.txt"
        assert artifact.exists()
        text = artifact.read_text()
        assert "MBU" in text and "MBA" in text
        assert "Fig. 9" in capsys.readouterr().out
        # --svg also writes the three heatmaps.
        for which in ("user", "item", "attr"):
            assert (tmp_path / f"fig9_{which}.svg").exists()

    def test_run_table_stubbed(self, tmp_path, capsys, monkeypatch):
        """Full-table runs are exercised by the benchmarks; here we check the
        CLI wiring (dispatch, rendering, file output) with a stub runner."""
        import repro.experiments.cli as cli

        def fake_run(experiment_id, scale="fast", seed=0, **kwargs):
            assert experiment_id == "fig8"
            return [{"sampler": "neighborhood", "scenario": "user",
                     "precision": 0.6, "ndcg": 0.9, "map": 0.5}]

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        code = main(["run", "fig8", "--scale", "fast", "--max-tasks", "2",
                     "-o", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "fig8.txt").read_text()
        assert "neighborhood" in text


class TestCompareCommand:
    def test_compare_writes_verdicts(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.cli as cli

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


class TestRenderDispatch:
    def test_overall(self):
        rows = [{"scenario": "user", "model": "HIRE", "k": 5,
                 "precision": 0.5, "ndcg": 0.9, "map": 0.4}]
        assert "HIRE" in render_experiment("table3", rows)

    def test_fig6(self):
        rows = [{"dataset": "movielens", "model": "HIRE", "test_seconds": 0.5}]
        assert "HIRE" in render_experiment("fig6", rows)

    def test_fig7_splits_sweeps(self):
        rows = [
            {"sweep": "num_him_blocks", "value": 3, "scenario": "user",
             "precision": 0.5, "ndcg": 0.9, "map": 0.4},
            {"sweep": "context_size", "value": 32, "scenario": "user",
             "precision": 0.5, "ndcg": 0.9, "map": 0.4},
        ]
        text = render_experiment("fig7", rows)
        assert "HIM blocks sweep" in text and "Context size sweep" in text

    def test_unknown(self):
        with pytest.raises(KeyError):
            render_experiment("fig99", [])


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
