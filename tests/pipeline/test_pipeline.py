"""ContextPipeline + trainer integration: bit-identity across worker
counts, failure propagation, shutdown, and metrics."""

import threading

import numpy as np
import pytest

from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from repro.pipeline import (
    ContextBatchSource,
    ContextPipeline,
    PipelineError,
)


def make_trainer(ml_dataset, ml_split, **overrides):
    model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                        attr_dim=4, seed=0))
    config = TrainerConfig(**{
        "steps": 6, "batch_size": 2, "context_users": 8,
        "context_items": 8, "seed": 0, **overrides})
    return HIRETrainer(model, ml_split, config=config)


@pytest.fixture(scope="module")
def sequential_history(ml_dataset, ml_split):
    """The per-step-RNG sequential baseline every pipelined run must match."""
    trainer = make_trainer(ml_dataset, ml_split, per_step_rng=True)
    return list(trainer.fit())


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_threaded_pipeline_matches_sequential(
            self, ml_dataset, ml_split, sequential_history, workers):
        trainer = make_trainer(ml_dataset, ml_split,
                               prefetch_workers=workers, prefetch_buffer=4)
        history = trainer.fit()
        assert history == sequential_history

    def test_legacy_default_stream_is_unchanged(
            self, ml_dataset, ml_split, sequential_history):
        # prefetch off + per_step_rng unset keeps the original shared
        # advancing stream — a different (equally valid) trajectory, which
        # is exactly why per-step RNG is opt-in.
        trainer = make_trainer(ml_dataset, ml_split)
        assert not trainer.config.uses_per_step_rng
        history = trainer.fit()
        assert history != sequential_history

    def test_source_sampling_is_pure(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, per_step_rng=True)
        source = ContextBatchSource.from_trainer(trainer)
        once = source.sample_step(3)
        again = source.sample_step(3)
        assert len(once) == trainer.config.batch_size
        for a, b in zip(once, again):
            assert np.array_equal(a.users, b.users)
            assert np.array_equal(a.items, b.items)
            assert np.array_equal(a.ratings, b.ratings)
            assert np.array_equal(a.query, b.query)


class _FailingSource:
    """Stands in for ContextBatchSource; every sample raises."""

    def sample_step(self, step):
        raise ValueError(f"injected sampler failure at step {step}")


class TestFailureAndShutdown:
    def test_worker_exception_propagates_to_fit(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split)
        pipeline = ContextPipeline(_FailingSource(), num_workers=2,
                                   buffer_depth=4)
        with pytest.raises(PipelineError) as excinfo:
            trainer.fit(pipeline=pipeline)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "injected sampler failure" in str(excinfo.value.__cause__)

    def test_failed_fit_still_closes_pipeline(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split)
        pipeline = ContextPipeline(_FailingSource(), num_workers=1)
        with pytest.raises(PipelineError):
            trainer.fit(pipeline=pipeline)
        assert pipeline.closed
        assert trainer._active_pipeline is None
        # No pipeline worker threads may outlive fit().
        pipeline._pool.join(timeout=5.0)
        assert pipeline._pool.alive_count() == 0

    def test_fit_closes_pipeline_on_success(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, prefetch_workers=1)
        trainer.fit()
        pipeline = trainer.last_pipeline
        assert pipeline is not None
        assert pipeline.closed
        pipeline._pool.join(timeout=5.0)
        assert pipeline._pool.alive_count() == 0
        assert not any(t.name.startswith("pipeline-")
                       for t in threading.enumerate())

    def test_context_manager_closes(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, per_step_rng=True)
        source = ContextBatchSource.from_trainer(trainer)
        with ContextPipeline(source, num_workers=1) as pipeline:
            pipeline.start  # started by __enter__
            assert pipeline.started
            batch = pipeline.take(0, timeout=10.0)
            assert len(batch) == trainer.config.batch_size
        assert pipeline.closed


class TestMetrics:
    def test_fit_populates_pipeline_metrics(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, prefetch_workers=1)
        trainer.fit()
        snap = trainer.last_pipeline.snapshot()
        steps = trainer.config.steps
        hits = snap["pipeline.buffer_hits"]["value"]
        starved = snap["pipeline.starvations"]["value"]
        assert hits + starved == steps
        assert snap["pipeline.batches"]["value"] >= steps
        assert snap["pipeline.wait_seconds"]["count"] == steps
        assert snap["pipeline.sample_seconds"]["count"] >= steps

    def test_report_renders(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, prefetch_workers=1)
        trainer.fit()
        report = trainer.last_pipeline.report()
        assert "pipeline.buffer_hits" in report


class TestConfigValidation:
    def test_prefetch_workers_nonnegative(self):
        with pytest.raises(ValueError):
            TrainerConfig(prefetch_workers=-1)

    def test_prefetch_buffer_positive(self):
        with pytest.raises(ValueError):
            TrainerConfig(prefetch_buffer=0)

    def test_prefetching_requires_per_step_rng(self):
        with pytest.raises(ValueError, match="per-step RNG"):
            TrainerConfig(prefetch_workers=2, per_step_rng=False)

    def test_per_step_rng_auto_resolution(self):
        assert not TrainerConfig().uses_per_step_rng
        assert TrainerConfig(prefetch_workers=2).uses_per_step_rng
        assert TrainerConfig(per_step_rng=True).uses_per_step_rng

    def test_pipeline_rejects_zero_workers(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, per_step_rng=True)
        source = ContextBatchSource.from_trainer(trainer)
        with pytest.raises(ValueError, match="num_workers"):
            ContextPipeline(source, num_workers=0)

    def test_take_before_start_raises(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, per_step_rng=True)
        pipeline = ContextPipeline(ContextBatchSource.from_trainer(trainer))
        with pytest.raises(RuntimeError, match="not started"):
            pipeline.take(0)

    def test_double_start_raises(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, per_step_rng=True)
        pipeline = ContextPipeline(ContextBatchSource.from_trainer(trainer),
                                   num_workers=1)
        pipeline.start(total_steps=1)
        try:
            with pytest.raises(RuntimeError, match="already started"):
                pipeline.start()
        finally:
            pipeline.close()
