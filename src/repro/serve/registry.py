"""Checkpoint/model registry with named versions and atomic hot swap.

Built on :mod:`repro.nn.serialization`: a checkpoint written by
:meth:`HIRE.save` carries its :class:`HIREConfig` in the ``__meta__``
namespace, so :meth:`ModelRegistry.register` can reconstruct the model
without the caller restating hyper-parameters.  The *active* model — the
one the serving layer scores with — is swapped atomically under a lock:
in-flight batches finish on the model they resolved, subsequent batches
see the new one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

from ..core.model import HIRE, HIREConfig
from ..data.schema import RatingDataset
from ..nn import inference
from ..nn.serialization import load_checkpoint
from .errors import UnknownModelError

__all__ = ["ModelRegistry", "ModelVersion"]


@dataclass(frozen=True)
class ModelVersion:
    """Immutable record of one registered model version."""

    name: str
    config: HIREConfig
    path: Path | None          # None for models registered in-memory
    metadata: dict


class ModelRegistry:
    """Named HIRE versions over one dataset, with a hot-swappable active one.

    The registry owns the dataset handle because a HIRE checkpoint stores
    parameters and config but not the attribute schema the encoder embeds;
    every registered version must come from (a model trained on) the same
    dataset.
    """

    def __init__(self, dataset: RatingDataset):
        self.dataset = dataset
        self._lock = threading.RLock()
        self._versions: dict[str, tuple[ModelVersion, HIRE]] = {}
        self._active: str | None = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, path: str | Path,
                 activate: bool = False) -> ModelVersion:
        """Load a checkpoint written by :meth:`HIRE.save` under ``name``.

        The first registered version becomes active automatically;
        ``activate=True`` swaps later versions in atomically.
        """
        state, metadata = load_checkpoint(path)
        config_dict = metadata.get("config")
        if config_dict is None:
            raise ValueError(
                f"checkpoint {path} carries no config metadata; "
                "write it with HIRE.save, not save_module")
        config = HIREConfig(**config_dict)
        model = HIRE(self.dataset, config)
        model.load_state_dict(state)
        return self.add(name, model, path=Path(path), metadata=metadata,
                        activate=activate)

    def add(self, name: str, model: HIRE, path: Path | None = None,
            metadata: dict | None = None, activate: bool = False) -> ModelVersion:
        """Register an in-memory model (benchmarks and tests skip the disk)."""
        model.eval()  # serving models never flip back to training mode
        version = ModelVersion(name=name, config=model.config, path=path,
                               metadata=metadata or {})
        with self._lock:
            if name in self._versions:
                raise ValueError(f"model {name!r} is already registered; "
                                 "unregister it first or pick a new name")
            self._versions[name] = (version, model)
            if activate or self._active is None:
                self._active = name
        # Retire cached inference plans keyed on previously active models.
        inference.bump_generation()
        return version

    def unregister(self, name: str, fallback: bool = False) -> None:
        """Remove a version; the registry can never be left headless.

        Unregistering the active version raises by default.  With
        ``fallback=True`` it instead atomically activates the most
        recently registered remaining version — unless ``name`` is the
        only one, which still raises (a registry must always be able to
        answer :meth:`active`).
        """
        with self._lock:
            if name not in self._versions:
                raise UnknownModelError(name)
            if name == self._active:
                others = [n for n in self._versions if n != name]
                if not others or not fallback:
                    raise ValueError(
                        f"model {name!r} is active; activate another version "
                        "first" + (" (no other version to fall back to)"
                                   if fallback and not others else ""))
                # dicts preserve insertion order: the last remaining key is
                # the most recently registered version.
                self._active = others[-1]
            del self._versions[name]
        inference.bump_generation()

    # ------------------------------------------------------------------ #
    # Lookup and hot swap
    # ------------------------------------------------------------------ #
    def activate(self, name: str) -> None:
        """Atomically make ``name`` the serving model."""
        with self._lock:
            if name not in self._versions:
                raise UnknownModelError(name)
            self._active = name
        inference.bump_generation()

    def active(self) -> tuple[str, HIRE]:
        """The ``(name, model)`` pair requests are currently scored with."""
        with self._lock:
            if self._active is None:
                raise UnknownModelError("no model registered")
            return self._active, self._versions[self._active][1]

    def get(self, name: str) -> HIRE:
        with self._lock:
            if name not in self._versions:
                raise UnknownModelError(name)
            return self._versions[name][1]

    def version(self, name: str) -> ModelVersion:
        with self._lock:
            if name not in self._versions:
                raise UnknownModelError(name)
            return self._versions[name][0]

    @property
    def active_name(self) -> str | None:
        with self._lock:
            return self._active

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._versions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._versions
