"""RunRecorder JSONL round-trips and the report renderers."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.obs.recorder import jsonable


@dataclass
class FakeConfig:
    steps: int = 10
    base_lr: float = 1e-3


class TestJsonable:
    def test_primitives_pass_through(self):
        assert jsonable(3) == 3
        assert jsonable(0.5) == 0.5
        assert jsonable("x") == "x"
        assert jsonable(None) is None
        assert jsonable(True) is True

    def test_numpy_scalars_and_arrays(self):
        assert jsonable(np.float32(0.5)) == pytest.approx(0.5)
        assert jsonable(np.int64(3)) == 3
        assert jsonable(np.arange(3)) == [0, 1, 2]
        assert jsonable(np.float64(1.5)) == 1.5

    def test_dataclass_and_containers(self):
        out = jsonable({"cfg": FakeConfig(), "seq": (1, 2)})
        assert out == {"cfg": {"steps": 10, "base_lr": 1e-3}, "seq": [1, 2]}

    def test_path_and_fallback(self):
        assert jsonable(Path("/tmp/x")) == "/tmp/x"
        assert isinstance(jsonable(object()), str)


class TestRunRecorder:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = obs.RunRecorder(path, config=FakeConfig())
        recorder.record("step", step=1, loss=np.float32(0.25))
        recorder.record("step", step=2, loss=0.2)
        recorder.finalize(steps_run=2, final_loss=0.2)
        records = obs.read_run(path)
        assert [r["type"] for r in records] == ["run_start", "step", "step",
                                                "summary"]
        assert records[0]["config"]["steps"] == 10
        assert records[1]["loss"] == pytest.approx(0.25)
        assert records[-1]["steps_run"] == 2

    def test_reserved_types_rejected(self, tmp_path):
        recorder = obs.RunRecorder(tmp_path / "run.jsonl")
        with pytest.raises(ValueError):
            recorder.record("run_start")
        with pytest.raises(ValueError):
            recorder.record("summary")
        recorder.close()

    def test_finalize_is_idempotent_and_closes(self, tmp_path):
        recorder = obs.RunRecorder(tmp_path / "run.jsonl")
        recorder.finalize(ok=True)
        recorder.finalize(ok=False)  # no-op
        assert recorder.closed
        records = obs.read_run(tmp_path / "run.jsonl")
        assert sum(r["type"] == "summary" for r in records) == 1
        with pytest.raises(ValueError):
            recorder.record("step")

    def test_context_manager_marks_aborted_runs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError):
            with obs.RunRecorder(path) as recorder:
                recorder.record("step", step=1)
                raise RuntimeError("boom")
        summary = obs.read_run(path)[-1]
        assert summary["type"] == "summary"
        assert summary["aborted"] is True
        assert "boom" in summary["error"]

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = obs.RunRecorder(path)
        recorder.record("step", step=1)
        recorder.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "step", "st')  # crashed mid-write
        records = obs.read_run(path)
        assert [r["type"] for r in records] == ["run_start", "step"]

    def test_one_file_per_run(self, tmp_path):
        a = obs.RunRecorder(tmp_path / "a.jsonl", run_id="a")
        b = obs.RunRecorder(tmp_path / "b.jsonl", run_id="b")
        a.finalize()
        b.finalize()
        assert obs.read_run(tmp_path / "a.jsonl")[0]["run_id"] == "a"
        assert obs.read_run(tmp_path / "b.jsonl")[0]["run_id"] == "b"


class TestReport:
    def _run_records(self, tmp_path, steps=5):
        path = tmp_path / "run.jsonl"
        with obs.RunRecorder(path, run_id="demo",
                             config={"steps": steps}) as recorder:
            for step in range(1, steps + 1):
                recorder.record("step", step=step, loss=1.0 / step,
                                grad_norm=0.5, lr=1e-3, step_seconds=0.01,
                                context_n=8, context_m=8, masked_cells=12)
            recorder.finalize(steps_run=steps, total_steps=steps,
                              final_loss=1.0 / steps,
                              wall_seconds=0.05, steps_per_second=100.0)
        return path

    def test_run_report_contains_trajectory_and_summary(self, tmp_path):
        path = self._run_records(tmp_path)
        text = obs.render_run_report(path)
        assert "run demo" in text
        assert "Loss" in text and "|grad|" in text
        assert "1.0000" in text   # first step's loss
        assert "summary:" in text and "steps/s" in text

    def test_step_table_thins_long_runs(self, tmp_path):
        path = self._run_records(tmp_path, steps=100)
        text = obs.render_run_report(path, max_rows=10)
        assert "(100 steps total; showing 10)" in text
        # Last step always shown.
        assert f"{100:>10d}" in text

    def test_empty_inputs(self):
        assert obs.render_run_report([]) == "(empty run)"
        assert obs.render_step_table([]) == "(no step records)"
        assert obs.render_span_table({}) == "(no spans recorded)"

    def test_span_table_renders_paths(self):
        totals = {
            "fit": obs.SpanStats("fit", 2, 1.0, 0.4, 0.6),
            "fit/train_step": obs.SpanStats("fit/train_step", 10, 0.9,
                                            0.05, 0.15),
        }
        text = obs.render_span_table(totals)
        assert "fit" in text
        assert "train_step" in text  # indented leaf name
        assert "10" in text

    def test_metrics_table(self):
        reg = obs.MetricsRegistry()
        reg.counter("trainer.steps").inc(4)
        reg.histogram("trainer.loss").observe(0.5)
        text = obs.render_metrics_table(reg)
        assert "trainer.steps" in text
        assert "counter" in text
        assert "histogram" in text
