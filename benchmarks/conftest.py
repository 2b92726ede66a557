"""Benchmark configuration.

Every benchmark regenerates one paper artifact (table or figure) at the
``fast`` scale and writes the rendered paper-style table to
``results/<experiment>.txt`` so EXPERIMENTS.md can cite the exact output.
Benchmarks run once per session (``rounds=1``) — the quantity of interest
is the artifact itself plus its wall-clock cost, not statistical timing.

``--smoke`` shrinks every benchmark to a sanity pass: reduced grids
and no artifact writes (the ``save`` fixture is a no-op).
Serving speed is not measured here but by the ``bench/`` ledger.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="run benchmarks at a shrunken smoke scale (seconds, not minutes); "
             "smoke runs skip artifact/JSON writes",
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
