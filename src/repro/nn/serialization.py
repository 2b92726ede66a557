"""Checkpointing: save/load module state dicts as ``.npz`` archives.

Parameter names become archive keys (dots are legal in npz keys), so a
checkpoint round-trips exactly through :meth:`Module.state_dict` /
:meth:`Module.load_state_dict`.  A ``__meta__/...`` namespace carries
arbitrary scalar metadata (model config, training step, seeds).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .module import Module

__all__ = ["save_checkpoint", "load_checkpoint", "save_module", "load_module"]

_META_KEY = "__meta__"


def _with_npz_suffix(path: str | Path) -> Path:
    """``np.savez`` silently appends ``.npz`` to paths lacking it; normalise
    up front so save and load agree on the on-disk name."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_checkpoint(path: str | Path, state: dict[str, np.ndarray],
                    metadata: dict | None = None) -> Path:
    """Write a state dict (plus JSON-serialisable metadata) to ``path``.

    Returns the real path written — ``<path>.npz`` when the suffix was
    missing — so callers never have to second-guess ``np.savez``.
    """
    path = _with_npz_suffix(path)
    arrays = dict(state)
    if _META_KEY in arrays:
        raise ValueError(f"{_META_KEY!r} is reserved")
    if metadata is not None:
        arrays[_META_KEY] = np.frombuffer(
            json.dumps(metadata, sort_keys=True).encode(), dtype=np.uint8
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read ``(state, metadata)`` from a checkpoint written by
    :func:`save_checkpoint`.

    Arrays keep their stored dtypes; :meth:`Module.load_state_dict` casts
    each one to its parameter's dtype.
    """
    path = Path(path)
    if not path.exists():
        path = _with_npz_suffix(path)
    with np.load(path) as archive:
        state = {}
        for key in archive.files:
            if key == _META_KEY:
                continue
            state[key] = archive[key]  # a fresh array per npz access
        metadata: dict = {}
        if _META_KEY in archive.files:
            metadata = json.loads(bytes(archive[_META_KEY].tobytes()).decode())
    return state, metadata


def save_module(path: str | Path, module: Module, metadata: dict | None = None) -> Path:
    """Checkpoint a module's parameters; returns the real path written."""
    return save_checkpoint(path, module.state_dict(), metadata)


def load_module(path: str | Path, module: Module) -> dict:
    """Restore a module's parameters in place; returns the metadata."""
    state, metadata = load_checkpoint(path)
    module.load_state_dict(state)
    return metadata
