"""Reverse-mode automatic differentiation on top of numpy.

This module is the foundation of the ``repro.nn`` substrate: a minimal but
complete autograd engine in the spirit of PyTorch's eager tensors.  Every
operation builds a node in a dynamic computation graph; calling
:meth:`Tensor.backward` runs a topological sweep that accumulates gradients
into ``.grad`` of every tensor created with ``requires_grad=True``.

Design choices:

* ``float32`` by default, for throughput; a process-wide dtype policy
  (:func:`set_default_dtype` / :class:`dtype_policy`) switches new tensors,
  initialisers, and optimizer state to ``float64`` for gradchecks and other
  numerical oracles.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` folds gradients
  back onto the original shapes.
* The graph holds strong references to parents only while a tensor is alive,
  so ordinary Python GC reclaims whole graphs between training steps.
* The backward sweep accumulates gradients in place: the first accumulation
  into a tensor allocates its buffer, every later one is an in-place
  ``np.add`` — no per-edge temporaries.  Ops may also return a
  :class:`SparseRowGrad` (rows + per-row values) instead of a dense array;
  embedding lookups use this to scatter only the touched rows.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "SparseRowGrad",
    "get_default_dtype",
    "set_default_dtype",
    "dtype_policy",
]


class _GradState(threading.local):
    """Per-thread autograd switch (each new thread starts grad-enabled)."""

    def __init__(self):
        self.enabled = True


_GRAD_STATE = _GradState()

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DEFAULT_DTYPE = np.dtype(np.float32)


def get_default_dtype() -> np.dtype:
    """The dtype newly created tensors, initialisers, and masks use."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the process-wide compute dtype (float32 or float64).

    Existing tensors keep their dtype; parameters inherit the policy at
    module construction time and all downstream compute (activations,
    gradients, optimizer state, dropout masks) follows the parameter dtype.
    """
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    _DEFAULT_DTYPE = dtype


class dtype_policy:
    """Context manager scoping :func:`set_default_dtype` to a block."""

    def __init__(self, dtype):
        self._dtype = dtype

    def __enter__(self):
        self._prev = _DEFAULT_DTYPE
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc):
        set_default_dtype(self._prev)
        return False


class SparseRowGrad:
    """Row-sparse gradient for 2-D tables: ``grad[rows] += values``.

    ``rows`` must be unique (so fancy-index ``+=`` accumulates correctly);
    the backward sweep densifies it into ``.grad`` only at the consuming
    tensor, never materializing intermediate full-size zero tables.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows: np.ndarray, values: np.ndarray):
        self.rows = rows
        self.values = values


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad).

    The flag is thread-local: a serving worker running inference under
    ``no_grad`` never turns autograd off for a concurrently training thread
    (and vice versa), and interleaved enter/exit across threads cannot
    corrupt each other's state.
    """

    def __enter__(self):
        self._prev = _GRAD_STATE.enabled
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_STATE.enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the autograd graph."""
    return _GRAD_STATE.enabled


_BASIC_INDEX_TYPES = (int, np.integer, slice, type(None), type(Ellipsis))


def _is_basic_index(key) -> bool:
    """True when ``key`` triggers numpy basic (non-fancy) indexing only."""
    if isinstance(key, tuple):
        return all(isinstance(k, _BASIC_INDEX_TYPES) for k in key)
    return isinstance(key, _BASIC_INDEX_TYPES)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
            # Preserve an explicit float32/float64 array; everything else
            # (lists, scalars, int/bool arrays) follows the dtype policy.
            self.data = data
        else:
            self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_STATE.enabled
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = cls(data)
        if _GRAD_STATE.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Clear the gradient (drop it to ``None``)."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Tensors whose .grad buffer was allocated by this sweep: those are
        # safe to np.add into in place.  A first accumulation may alias an
        # upstream array (or a read-only broadcast view), and a grad held
        # from an earlier sweep may have been handed out, so neither is ever
        # mutated — the next accumulation allocates the owned buffer once
        # and every further one reuses it.
        owned: set[int] = set()

        def accumulate(target: "Tensor", pgrad) -> None:
            if isinstance(pgrad, SparseRowGrad):
                if target.grad is None:
                    target.grad = np.zeros(target.data.shape, dtype=target.data.dtype)
                    owned.add(id(target))
                elif id(target) not in owned:
                    target.grad = target.grad.copy()
                    owned.add(id(target))
                target.grad[pgrad.rows] += pgrad.values
                return
            pgrad = _unbroadcast(
                np.asarray(pgrad, dtype=target.data.dtype), target.data.shape
            )
            if target.grad is None:
                # Takes over pgrad, which may alias an upstream array — not
                # safe for in-place reuse until reallocated.
                target.grad = pgrad
            elif id(target) in owned:
                np.add(target.grad, pgrad, out=target.grad)
            else:
                target.grad = target.grad + pgrad
                owned.add(id(target))

        accumulate(self, grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            for parent, pgrad in node._backward(node.grad):
                if pgrad is None:
                    continue
                accumulate(parent, pgrad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        # Constants follow this tensor's dtype so float32 graphs are not
        # silently promoted to float64 by python scalars.
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op(
            self.data + other.data,
            (self, other),
            lambda g: ((self, g), (other, g)),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op(
            self.data - other.data,
            (self, other),
            lambda g: ((self, g), (other, -g)),
        )

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op(
            self.data * other.data,
            (self, other),
            lambda g: ((self, g * other.data), (other, g * self.data)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op(
            self.data / other.data,
            (self, other),
            lambda g: (
                (self, g / other.data),
                (other, -g * self.data / (other.data * other.data)),
            ),
        )

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), lambda g: ((self, -g),))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent
        return Tensor._from_op(
            out_data,
            (self,),
            lambda g: ((self, g * exponent * self.data ** (exponent - 1)),),
        )

    # Comparison operators return plain boolean arrays (no gradients).
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(g):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return ((self, g * b), (other, g * a))
            if a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = (b * g[..., None, :]).sum(axis=-1)
                gb = a[:, None] * g[..., None, :]
                return ((self, ga), (other, gb))
            if b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = g[..., :, None] * b
                gb = (np.swapaxes(a, -1, -2) @ g[..., :, None])[..., 0]
                return ((self, ga), (other, gb))
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return ((self, ga), (other, gb))

        return Tensor._from_op(out_data, (self, other), backward)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes.  With no arguments, reverse all axes (like numpy)."""
        if not axes:
            axes = tuple(range(self.data.ndim))[::-1]
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        return Tensor._from_op(
            self.data.transpose(axes),
            (self,),
            lambda g: ((self, g.transpose(inverse)),),
        )

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        return Tensor._from_op(
            np.swapaxes(self.data, axis1, axis2),
            (self,),
            lambda g: ((self, np.swapaxes(g, axis1, axis2)),),
        )

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return Tensor._from_op(
            self.data.reshape(shape),
            (self,),
            lambda g: ((self, g.reshape(original)),),
        )

    def broadcast_to(self, *shape) -> "Tensor":
        """Broadcast to ``shape`` without copying (backward sums the view)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._from_op(
            np.broadcast_to(self.data, shape),
            (self,),
            lambda g: ((self, g),),  # _unbroadcast folds g back to self.shape
        )

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g):
            full = np.zeros_like(self.data)
            if _is_basic_index(key):
                # Basic indexing selects each source cell at most once, so a
                # direct slice assignment replaces the slow np.add.at ufunc
                # scatter (hit by w_qkv column slicing on the reference
                # attention path every step).
                full[key] = g
            else:
                np.add.at(full, key, g)
            return ((self, full),)

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return ((self, np.broadcast_to(g, self.data.shape).copy()),)
            g_expanded = g
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                g_expanded = np.expand_dims(g, axes)
            return ((self, np.broadcast_to(g_expanded, self.data.shape).copy()),)

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
                mask /= mask.sum()
                return ((self, mask * g),)
            g_expanded = g
            out_expanded = out_data
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                g_expanded = np.expand_dims(g, axes)
                out_expanded = np.expand_dims(out_data, axes)
            mask = (self.data == out_expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return ((self, mask * g_expanded),)

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor._from_op(out_data, (self,), lambda g: ((self, g * out_data),))

    def log(self) -> "Tensor":
        return Tensor._from_op(
            np.log(self.data), (self,), lambda g: ((self, g / self.data),)
        )

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return Tensor._from_op(
            out_data, (self,), lambda g: ((self, g * 0.5 / out_data),)
        )

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor._from_op(
            out_data, (self,), lambda g: ((self, g * (1.0 - out_data * out_data)),)
        )

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return Tensor._from_op(
            out_data, (self,), lambda g: ((self, g * out_data * (1.0 - out_data)),)
        )

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor._from_op(
            self.data * mask, (self,), lambda g: ((self, g * mask),)
        )

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._from_op(
            np.abs(self.data), (self,), lambda g: ((self, g * sign),)
        )

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._from_op(
            np.clip(self.data, low, high), (self,), lambda g: ((self, g * mask),)
        )
