"""Module system: parameter containers with recursive traversal.

Mirrors the ``torch.nn.Module`` contract at the scale this library needs:
registration by attribute assignment, recursive ``parameters()``,
``train()`` / ``eval()`` mode flags, and a flat ``state_dict`` for
serialisation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor flagged as trainable model state."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must stay trainable even if created under no_grad.
        self.requires_grad = True


class Module:
    """Base class for all neural network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters in this module and its submodules."""
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            yield from child.named_modules(prefix + name + ".")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Modes and gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def _upgrade_state_dict(self, prefix: str, state: dict) -> None:
        """Hook: rewrite legacy checkpoint keys under ``prefix`` in place.

        Called for every submodule before :meth:`load_state_dict` matches
        keys; e.g. attention packs old per-projection weights into ``w_qkv``.
        """

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        state = dict(state)
        for prefix, module in self.named_modules():
            module._upgrade_state_dict(prefix, state)
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            # Cast to the parameter's dtype so checkpoints follow the
            # module's dtype policy rather than forcing float64.
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.copy()


class Sequential(Module):
    """Chain modules; each is called on the previous module's output."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = ModuleList(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class ModuleList(Module):
    """A list of submodules that registers its children for traversal."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
