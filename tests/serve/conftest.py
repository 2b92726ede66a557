"""Serving-layer fixtures: a small model, tasks, and a parked worker."""

import contextlib
import threading

import pytest

from repro.core import HIRE, HIREConfig
from repro.eval.tasks import build_eval_tasks


@pytest.fixture(scope="session")
def serve_model(ml_dataset):
    """Untrained-but-deterministic HIRE (weights seeded; serving tests only
    care that scores are reproducible, not that they are good)."""
    return HIRE(ml_dataset, HIREConfig(num_blocks=2, num_heads=2, attr_dim=8))


@pytest.fixture(scope="session")
def serve_tasks(ml_split):
    return build_eval_tasks(ml_split, "user", min_query=2, seed=1, max_tasks=6)


@contextlib.contextmanager
def _parked(service):
    """Hold a one-worker service's worker before its next pop while the
    block queues requests; on exit the worker takes every queued request
    (up to ``max_batch_size``) as one batch, with no dependence on timing."""
    batcher = service._batcher
    parked, release = threading.Event(), threading.Event()
    next_batch = batcher.next_batch

    def park(timeout):
        parked.set()
        release.wait()
        return next_batch(timeout)

    batcher.next_batch = park
    try:
        assert parked.wait(10), "the worker never reached its next pop"
        yield
    finally:
        del batcher.next_batch  # later pops go straight to the queue
        release.set()


@pytest.fixture
def parked_worker():
    """``with parked_worker(service): ...`` — queue requests as one batch."""
    return _parked
