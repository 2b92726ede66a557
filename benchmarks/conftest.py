"""Benchmark configuration.

Every benchmark regenerates one paper artifact (table or figure) at the
``fast`` scale and writes the rendered paper-style table to
``results/<experiment>.txt`` so EXPERIMENTS.md can cite the exact output.
Benchmarks run once per session (``rounds=1``) — the quantity of interest
is the artifact itself plus its wall-clock cost, not statistical timing.

Every HIRE fit goes through the runner's fit plan, so a model one
benchmark trained is reused by the later ones that ask for it; a file's
time depends on which benchmark pays for a shared fit first.
Serving speed is not measured here but by the ``bench/`` ledger.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save(results_dir):
    def _save(name: str, text: str) -> None:
        filename = name if name.endswith(".svg") else f"{name}.txt"
        (results_dir / filename).write_text(text + "\n")
    return _save
