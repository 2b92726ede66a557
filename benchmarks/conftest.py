"""Benchmark configuration.

Every benchmark regenerates one registry artifact (``EXPERIMENTS``) at
the ``fast`` scale under the artifact's own protocol and ``save`` writes
every file of ``render_artifact`` into ``results/`` — the same files
``python -m repro.experiments.cli run all -o results/`` writes — so
EXPERIMENTS.md can cite the exact output.  Benchmarks run once per session
(``rounds=1``) — the quantity of interest is the artifact itself plus its
wall-clock cost, not statistical timing.

Every HIRE fit goes through the runner's fit plan, so a model one
benchmark trained is reused by the later ones that ask for it; a file's
time depends on which benchmark pays for a shared fit first.
Serving speed is not measured here but by the ``bench/`` ledger.
"""

from pathlib import Path

import pytest

from repro.experiments import render_artifact

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save(results_dir):
    def _save(experiment_id: str, result) -> None:
        for name, text in render_artifact(experiment_id, result).items():
            (results_dir / name).write_text(text)
    return _save
