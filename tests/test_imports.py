"""The package's only third-party dependency is numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Snapshot first: ``site`` may already have loaded third-party modules
# (e.g. from ``.pth`` files) before any package code runs.
_PROBE = """
import sys
before = set(sys.modules)
import repro, repro.viz
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "repro"})))
"""


def test_import_loads_only_stdlib_and_numpy():
    probe = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                           text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert probe.stdout.split() == []
