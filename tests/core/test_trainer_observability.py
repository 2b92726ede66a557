"""Trainer telemetry: observer events, sinks, passivity, edge paths.

The determinism tests are the PR's acceptance gate: ``loss_history`` must
be bit-identical with full recording enabled vs. disabled, because
telemetry never touches an ``np.random.Generator`` stream.
"""

import io

import numpy as np
import pytest

from repro import obs
from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset_spans()
    obs.enable_profiling(False)
    yield
    obs.reset_spans()
    obs.enable_profiling(False)


def make_trainer(ml_dataset, ml_split, observers=None, **overrides):
    model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                        attr_dim=4, seed=0))
    defaults = dict(steps=6, batch_size=2, context_users=8, context_items=8,
                    seed=0)
    defaults.update(overrides)
    return HIRETrainer(model, ml_split, config=TrainerConfig(**defaults),
                       observers=observers)


class CollectingObserver(obs.TrainerObserver):
    def __init__(self):
        self.fit_starts = []
        self.steps = []
        self.summaries = []

    def on_fit_start(self, trainer, config):
        self.fit_starts.append(config)

    def on_step(self, event):
        self.steps.append(event)

    def on_fit_end(self, summary):
        self.summaries.append(summary)


class TestObserverEvents:
    def test_step_events_carry_training_signals(self, ml_dataset, ml_split):
        collector = CollectingObserver()
        trainer = make_trainer(ml_dataset, ml_split, observers=[collector])
        trainer.fit()
        assert len(collector.fit_starts) == 1
        assert [e.step for e in collector.steps] == [1, 2, 3, 4, 5, 6]
        for event, loss in zip(collector.steps, trainer.loss_history):
            assert event.loss == loss
            assert event.grad_norm > 0.0
            assert event.step_seconds > 0.0
            assert event.context_n == 8 and event.context_m == 8
            assert event.masked_cells > 0
        # First step runs at the base LR (scheduler advances afterwards).
        assert collector.steps[0].lr == pytest.approx(1e-3)

    def test_fit_summary(self, ml_dataset, ml_split):
        collector = CollectingObserver()
        trainer = make_trainer(ml_dataset, ml_split, observers=[collector])
        trainer.fit()
        (summary,) = collector.summaries
        assert summary.steps_run == 6
        assert summary.total_steps == 6
        assert summary.final_loss == trainer.loss_history[-1]
        assert summary.wall_seconds > 0.0

    def test_per_fit_observers_do_not_stick(self, ml_dataset, ml_split):
        collector = CollectingObserver()
        trainer = make_trainer(ml_dataset, ml_split)
        trainer.fit(observers=[collector])
        assert trainer.observers == []
        assert len(collector.steps) == 6

    def test_add_observer(self, ml_dataset, ml_split):
        collector = CollectingObserver()
        trainer = make_trainer(ml_dataset, ml_split)
        trainer.add_observer(collector)
        trainer.fit()
        assert len(collector.steps) == 6


class TestConsoleSink:
    def test_log_every_cadence(self, ml_dataset, ml_split):
        stream = io.StringIO()
        trainer = make_trainer(ml_dataset, ml_split,
                               observers=[obs.ConsoleSink(log_every=2,
                                                          stream=stream)])
        trainer.fit()
        lines = stream.getvalue().splitlines()
        step_lines = [l for l in lines if l.startswith("step ")]
        assert len(step_lines) == 3  # steps 2, 4, 6
        assert "loss" in step_lines[0]
        assert "|g|" in step_lines[0]
        assert "lr" in step_lines[0]
        assert any(l.startswith("fit done:") for l in lines)

    def test_fit_log_every_attaches_console_sink(self, ml_dataset, ml_split,
                                                 capsys):
        trainer = make_trainer(ml_dataset, ml_split)
        trainer.fit(log_every=3)
        out = capsys.readouterr().out
        step_lines = [l for l in out.splitlines() if l.startswith("step ")]
        assert len(step_lines) == 2  # steps 3 and 6

    def test_log_every_zero_is_silent(self, ml_dataset, ml_split, capsys):
        trainer = make_trainer(ml_dataset, ml_split)
        trainer.fit()
        assert capsys.readouterr().out == ""

    def test_log_every_validated(self):
        with pytest.raises(ValueError):
            obs.ConsoleSink(log_every=0)


class TestRecorderIntegration:
    def test_run_file_has_config_steps_and_summary(self, ml_dataset, ml_split,
                                                   tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = make_trainer(ml_dataset, ml_split)
        recorder = obs.RunRecorder(path, config=trainer.config)
        trainer.fit(observers=[obs.RecorderSink(recorder)])
        records = obs.read_run(path)
        assert records[0]["type"] == "run_start"
        assert records[0]["config"]["steps"] == 6
        steps = [r for r in records if r["type"] == "step"]
        assert [r["step"] for r in steps] == [1, 2, 3, 4, 5, 6]
        assert all(r["grad_norm"] > 0 for r in steps)
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["steps_run"] == 6
        report = obs.render_run_report(path)
        assert "summary:" in report

    def test_divergence_error_leaves_readable_run_file(self, ml_dataset,
                                                       ml_split, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = make_trainer(ml_dataset, ml_split, batch_size=1)
        trainer.train_step()
        next(trainer.model.parameters()).data[:] = np.nan
        with pytest.raises(RuntimeError, match="diverged at step 1"):
            with obs.RunRecorder(path, config=trainer.config) as recorder:
                trainer.fit(observers=[obs.RecorderSink(recorder)])
        records = obs.read_run(path)
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["aborted"] is True
        assert "diverged" in summary["error"]


class TestMetricsSink:
    def test_registry_accumulates(self, ml_dataset, ml_split):
        registry = obs.MetricsRegistry()
        trainer = make_trainer(ml_dataset, ml_split,
                               observers=[obs.MetricsSink(registry)])
        trainer.fit()
        assert registry.counter("trainer.steps").value == 6
        assert registry.histogram("trainer.loss").count == 6
        assert registry.histogram("trainer.grad_norm").count == 6
        assert registry.gauge("trainer.lr").value > 0
        assert registry.counter("trainer.fits").value == 1
        assert registry.counter("trainer.masked_cells").value > 0


class TestPassivity:
    """Telemetry must not perturb training — the PR's acceptance gate."""

    def test_loss_history_bit_identical_with_full_recording(
            self, ml_dataset, ml_split, tmp_path):
        plain = make_trainer(ml_dataset, ml_split, steps=8)
        plain.fit()

        recorder = obs.RunRecorder(tmp_path / "run.jsonl")
        observers = [
            obs.RecorderSink(recorder),
            obs.MetricsSink(obs.MetricsRegistry()),
            obs.ConsoleSink(log_every=2, stream=io.StringIO()),
        ]
        recorded = make_trainer(ml_dataset, ml_split, steps=8,
                                observers=observers)
        with obs.profiling(True):
            recorded.fit()
        assert recorded.loss_history == plain.loss_history  # bit-identical

    def test_trainer_rng_state_untouched_by_observers(self, ml_dataset,
                                                      ml_split):
        plain = make_trainer(ml_dataset, ml_split, steps=4)
        observed = make_trainer(ml_dataset, ml_split, steps=4,
                                observers=[CollectingObserver()])
        plain.fit()
        observed.fit()
        # Same stream position afterwards: identical next draws.
        assert (plain.rng.integers(1 << 30)
                == observed.rng.integers(1 << 30))

    def test_spans_recorded_during_fit_when_profiling(self, ml_dataset,
                                                      ml_split):
        trainer = make_trainer(ml_dataset, ml_split, steps=2)
        with obs.profiling(True):
            trainer.fit()
        totals = obs.span_totals()
        assert totals["train_step"].count == 2
        for leaf in ("sample", "forward", "backward", "optimizer"):
            assert totals[f"train_step/{leaf}"].count == 2
