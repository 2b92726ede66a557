"""Benchmark configuration.

Every benchmark regenerates one paper artifact (table or figure) at the
``fast`` scale and writes the rendered paper-style table to
``results/<experiment>.txt`` so EXPERIMENTS.md can cite the exact output.
Benchmarks run once per session (``rounds=1``) — the quantity of interest
is the artifact itself plus its wall-clock cost, not statistical timing.

``--smoke`` shrinks every benchmark — including the systems ones
(``bench_substrate_micro``, ``bench_infer_engine``,
``bench_serve_throughput``, ``bench_pipeline_throughput``) — to a
seconds-long sanity pass: reduced
grids, no artifact writes, and no ``BENCH_*.json`` trajectory updates.
The full runs additionally assert their acceptance bars (telemetry
overhead, serve throughput, pipeline speedup + bit-identity).
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
def save(results_dir):
    def _save(name: str, text: str) -> None:
        save_result(results_dir, name, text)
    return _save
