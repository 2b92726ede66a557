"""Benchmark configuration.

Every benchmark regenerates one paper artifact (table or figure) at the
``fast`` scale and writes the rendered paper-style table to
``results/<experiment>.txt`` so EXPERIMENTS.md can cite the exact output.
Benchmarks run once per session (``rounds=1``) — the quantity of interest
is the artifact itself plus its wall-clock cost, not statistical timing.

``--smoke`` skips the artifact writes (the ``save`` fixture is a no-op)
but runs the same ``fast``-scale grids, so it costs about as much as a
full run: 551 s against 580 s on a 2-vCPU box (EXPERIMENTS.md lists the
time of each benchmark).
Serving speed is not measured here but by the ``bench/`` ledger.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="run every benchmark without writing its artifact; the grids "
             "are those of a full run, so this takes minutes (about 9 on "
             "two CPUs)",
    )


@pytest.fixture
def smoke_mode(request) -> bool:
    return request.config.getoption("--smoke")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: Path, name: str, text: str) -> None:
    filename = name if name.endswith(".svg") else f"{name}.txt"
    (results_dir / filename).write_text(text + "\n")


@pytest.fixture
def save(results_dir, smoke_mode):
    def _save(name: str, text: str) -> None:
        if not smoke_mode:
            save_result(results_dir, name, text)
    return _save
