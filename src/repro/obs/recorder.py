"""Structured run logging: one JSONL file per run.

A :class:`RunRecorder` writes newline-delimited JSON events to a single
file: a ``run_start`` record (with a sanitised config snapshot), any number
of typed event records (``step``, ``fit_start``, ...), and a final
``summary`` record written by :meth:`RunRecorder.finalize`.  The format is
append-only and line-oriented, so a crashed run still leaves every event
up to the crash readable by :func:`read_run`.

Recording is purely passive: the recorder never touches model or RNG
state, only serialises what callers hand it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import IO, Any

__all__ = ["RunRecorder", "read_run", "jsonable"]


def jsonable(value: Any) -> Any:
    """Best-effort conversion of configs/metrics into JSON-able values.

    Handles dataclasses, mappings, sequences, numpy scalars and arrays
    (via their ``item``/``tolist`` duck-type), and paths; anything else
    falls back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if hasattr(value, "ndim") and hasattr(value, "tolist"):  # numpy array
        return value.tolist() if value.ndim else value.item()
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


class RunRecorder:
    """Append-only JSONL event log for one run.

    Usable as a context manager; exiting finalises the run (with an
    ``aborted`` marker if an exception is propagating and no summary was
    written yet).
    """

    def __init__(self, path: str | os.PathLike, run_id: str | None = None,
                 config: Any = None, flush_every: int = 1):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id or self.path.stem
        self._flush_every = max(int(flush_every), 1)
        self._since_flush = 0
        self._finalized = False
        self._file: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._write({
            "type": "run_start",
            "run_id": self.run_id,
            "unix_time": time.time(),
            "config": jsonable(config) if config is not None else None,
        })

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._file is None

    def _write(self, record: dict) -> None:
        if self._file is None:
            raise ValueError(f"recorder for {self.path} is closed")
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._since_flush += 1
        if self._since_flush >= self._flush_every:
            self._file.flush()
            self._since_flush = 0

    def record(self, event_type: str, **fields: Any) -> None:
        """Append one typed event record."""
        if event_type in ("run_start", "summary"):
            raise ValueError(f"{event_type!r} records are written by the recorder")
        self._write({"type": event_type,
                     **{k: jsonable(v) for k, v in fields.items()}})

    def finalize(self, **summary: Any) -> None:
        """Write the closing ``summary`` record and close the file."""
        if self._finalized:
            return
        self._write({"type": "summary", "run_id": self.run_id,
                     "unix_time": time.time(),
                     **{k: jsonable(v) for k, v in summary.items()}})
        self._finalized = True
        self.close()

    def close(self) -> None:
        """Flush and close the file; it counts as closed even when the
        flush raises."""
        file, self._file = self._file, None
        if file is not None:
            try:
                file.flush()
            finally:
                file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self._finalized:
            self.finalize(aborted=exc_type is not None,
                          error=repr(exc) if exc is not None else None)
        return False


def read_run(path: str | os.PathLike) -> list[dict]:
    """Parse a run's JSONL file back into a list of event dicts.

    Tolerates a truncated final line (crash mid-write): complete records
    up to that point are returned.
    """
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break  # truncated tail from a crashed writer
    return records
