"""Trainer observer API and the built-in sinks.

:class:`HIRETrainer <repro.core.trainer.HIRETrainer>` emits one
:class:`StepEvent` per optimisation step and a :class:`FitSummary` when
``fit`` returns.
Observers subclass :class:`TrainerObserver` and override any subset of the
hooks; all telemetry is passive — observers receive plain values and must
not mutate trainer, model, or RNG state.

Built-in sinks:

* :class:`ConsoleSink` — the human-readable progress line that replaced
  the trainer's bare ``print`` (same ``log_every`` cadence).
* :class:`RecorderSink` — streams events into a
  :class:`~repro.obs.recorder.RunRecorder` JSONL file.
* :class:`MetricsSink` — folds events into a
  :class:`~repro.obs.metrics.MetricsRegistry` (loss/grad-norm/step-time
  histograms, step counters, an LR gauge).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import IO

from .metrics import MetricsRegistry, get_registry
from .recorder import RunRecorder

__all__ = [
    "StepEvent",
    "FitSummary",
    "TrainerObserver",
    "ConsoleSink",
    "RecorderSink",
    "MetricsSink",
]


@dataclass(frozen=True)
class StepEvent:
    """One optimisation step, as reported by ``HIRETrainer.train_step``."""

    step: int                 # 1-based step index
    total_steps: int
    loss: float
    grad_norm: float          # pre-clip global L2 norm
    lr: float
    step_seconds: float
    steps_per_second: float   # instantaneous (1 / step_seconds)
    context_n: int            # users per context
    context_m: int            # items per context
    masked_cells: int         # total query cells across the mini-batch


@dataclass(frozen=True)
class FitSummary:
    """End-of-fit aggregate, emitted exactly once per ``fit`` call."""

    steps_run: int
    total_steps: int
    final_loss: float
    wall_seconds: float
    steps_per_second: float


class TrainerObserver:
    """Base observer: every hook is a no-op; override what you need."""

    def on_fit_start(self, trainer, config) -> None:
        pass

    def on_step(self, event: StepEvent) -> None:
        pass

    def on_fit_end(self, summary: FitSummary) -> None:
        pass


class ConsoleSink(TrainerObserver):
    """Plain-text progress lines, every ``log_every`` steps."""

    def __init__(self, log_every: int = 10, stream: IO[str] | None = None):
        if log_every < 1:
            raise ValueError("log_every must be >= 1")
        self.log_every = log_every
        self._stream = stream

    def _out(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stdout

    def _emit(self, line: str) -> None:
        out = self._out()
        out.write(line + "\n")
        if hasattr(out, "flush"):
            out.flush()

    def on_step(self, event: StepEvent) -> None:
        if event.step % self.log_every:
            return
        self._emit(
            f"step {event.step:5d}/{event.total_steps}"
            f"  loss {event.loss:.4f}"
            f"  |g| {event.grad_norm:.3f}"
            f"  lr {event.lr:.2e}"
            f"  {event.steps_per_second:6.2f} steps/s"
        )

    def on_fit_end(self, summary: FitSummary) -> None:
        self._emit(
            f"fit done: {summary.steps_run}/{summary.total_steps} steps"
            f"  final loss {summary.final_loss:.4f}"
            f"  {summary.wall_seconds:.2f}s"
            f"  {summary.steps_per_second:.2f} steps/s"
        )


class RecorderSink(TrainerObserver):
    """Streams trainer events into a :class:`RunRecorder` JSONL file.

    ``finalize_on_fit_end`` (default True) writes the recorder's summary
    record when ``fit`` finishes; pass False to keep the recorder open for
    several fits in one run file.
    """

    def __init__(self, recorder: RunRecorder, finalize_on_fit_end: bool = True):
        self.recorder = recorder
        self.finalize_on_fit_end = finalize_on_fit_end

    def on_fit_start(self, trainer, config) -> None:
        self.recorder.record(
            "fit_start",
            trainer_config=config,
            model_parameters=sum(p.data.size for p in trainer.model.parameters()),
        )

    def on_step(self, event: StepEvent) -> None:
        self.recorder.record(
            "step",
            step=event.step,
            loss=event.loss,
            grad_norm=event.grad_norm,
            lr=event.lr,
            step_seconds=event.step_seconds,
            context_n=event.context_n,
            context_m=event.context_m,
            masked_cells=event.masked_cells,
        )

    def on_fit_end(self, summary: FitSummary) -> None:
        if self.finalize_on_fit_end:
            self.recorder.finalize(
                steps_run=summary.steps_run,
                total_steps=summary.total_steps,
                final_loss=summary.final_loss,
                wall_seconds=summary.wall_seconds,
                steps_per_second=summary.steps_per_second,
            )
        else:
            self.recorder.record("fit_end", steps_run=summary.steps_run,
                                 final_loss=summary.final_loss,
                                 wall_seconds=summary.wall_seconds)


class MetricsSink(TrainerObserver):
    """Folds trainer events into a metrics registry under ``prefix``."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 prefix: str = "trainer"):
        self.registry = registry if registry is not None else get_registry()
        self.prefix = prefix

    def _name(self, leaf: str) -> str:
        return f"{self.prefix}.{leaf}" if self.prefix else leaf

    def on_step(self, event: StepEvent) -> None:
        reg = self.registry
        reg.counter(self._name("steps")).inc()
        reg.counter(self._name("masked_cells")).inc(event.masked_cells)
        reg.gauge(self._name("lr")).set(event.lr)
        reg.histogram(self._name("loss")).observe(event.loss)
        reg.histogram(self._name("grad_norm")).observe(event.grad_norm)
        reg.histogram(self._name("step_seconds")).observe(event.step_seconds)

    def on_fit_end(self, summary: FitSummary) -> None:
        self.registry.counter(self._name("fits")).inc()
        self.registry.gauge(self._name("steps_per_second")).set(
            summary.steps_per_second)
