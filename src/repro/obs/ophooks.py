"""Optional per-op timing hooks over the ``repro.nn.functional`` kernels.

:func:`instrument` rebinds the hot ``nn.functional`` ops to timing wrappers
that attribute each call's wall time to the current profiling span (see
:mod:`repro.obs.spans`) under an ``op/<name>[fused|ref]`` leaf — so a span
report shows, e.g., how much of ``train_step/forward`` was spent inside
``layer_norm`` *and* whether the fused or the decomposed reference kernel
ran.  :func:`uninstrument` restores the original functions; while
uninstrumented (the default) the substrate carries **zero** added cost —
the ops are the very same function objects the module shipped with.

Every call site in the repo reaches these ops through module-attribute
access (``from . import functional as F; F.linear(...)``), which is what
makes rebinding sufficient.  Code that froze a direct reference with
``from repro.nn.functional import linear`` before :func:`instrument` keeps
the unwrapped op — fine for telemetry, which is best-effort by design.
"""

from __future__ import annotations

import functools
import time

from ..nn import functional as F
from . import spans

__all__ = [
    "HOT_OPS",
    "instrument",
    "uninstrument",
    "instrumented",
    "op_hooks",
]

# The single-autograd-node kernels of the HIRE hot path plus the loss: the
# ops with a fused-vs-reference split.  ``attribute_attention`` is MBA's
# whole layer (norm, attention and residual) as one node.
HOT_OPS = (
    "linear",
    "layer_norm",
    "gelu",
    "softmax",
    "scaled_dot_product_attention",
    "multi_head_attention_qkv",
    "attribute_attention",
    "embedding_lookup",
    "masked_mse_loss",
)

_ORIGINALS: dict[str, object] = {}


def _wrap(name: str, op):
    @functools.wraps(op)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return op(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            mode = "fused" if F.fused_kernels_enabled() else "ref"
            parent = spans.current_span_path()
            leaf = f"op/{name}[{mode}]"
            spans.record_span(f"{parent}/{leaf}" if parent else leaf, elapsed)

    timed.__wrapped_op__ = op
    return timed


def instrument(ops: tuple[str, ...] = HOT_OPS) -> None:
    """Rebind the named ``nn.functional`` ops to timing wrappers."""
    for name in ops:
        if name in _ORIGINALS:
            continue  # already instrumented
        op = getattr(F, name)
        _ORIGINALS[name] = op
        setattr(F, name, _wrap(name, op))


def uninstrument() -> None:
    """Restore every instrumented op to its original function object."""
    while _ORIGINALS:
        name, op = _ORIGINALS.popitem()
        setattr(F, name, op)


def instrumented() -> bool:
    return bool(_ORIGINALS)


class op_hooks:
    """Context manager scoping :func:`instrument` to a block."""

    def __init__(self, ops: tuple[str, ...] = HOT_OPS):
        self._ops = ops

    def __enter__(self):
        self._was_instrumented = instrumented()
        if not self._was_instrumented:
            instrument(self._ops)
        return self

    def __exit__(self, *exc):
        if not self._was_instrumented:
            uninstrument()
        return False
