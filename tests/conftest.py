"""Shared fixtures: small seeded workloads reused across the test suite."""

import numpy as np
import pytest

from repro import nn
from repro.data import (
    RatingGraph,
    bookcrossing_like,
    douban_like,
    make_cold_start_split,
    movielens_like,
)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def ml_dataset():
    """Small MovieLens-like dataset (rich attributes)."""
    return movielens_like(num_users=80, num_items=60, seed=7)


@pytest.fixture(scope="session")
def douban_dataset():
    """Small Douban-like dataset (no attributes, social edges)."""
    return douban_like(num_users=60, num_items=70, seed=11)


@pytest.fixture(scope="session")
def book_dataset():
    """Small Bookcrossing-like dataset (1-10 scale, sparse)."""
    return bookcrossing_like(num_users=70, num_items=60, seed=13)


@pytest.fixture(scope="session")
def ml_split(ml_dataset):
    return make_cold_start_split(ml_dataset, 0.2, 0.2, seed=3)


@pytest.fixture(scope="session")
def douban_split(douban_dataset):
    return make_cold_start_split(douban_dataset, 0.3, 0.3, seed=3)


@pytest.fixture(scope="session")
def ml_graph(ml_split):
    return RatingGraph(ml_split.train_ratings(), ml_split.dataset.num_users,
                       ml_split.dataset.num_items)


@pytest.fixture(scope="class")
def float64():
    """Pin the float64 dtype policy for float64 numerical oracles:
    finite-difference gradchecks and <= 1e-10 equivalence checks.

    Apply it with ``pytest.mark.usefixtures("float64")`` on a class or as a
    module's ``pytestmark``; class scope keeps it compatible with
    Hypothesis tests, which reject function-scoped fixtures.
    """
    with nn.dtype_policy(np.float64):
        yield
