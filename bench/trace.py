"""Span recorder and the timing shims the traced run installs around layers.

The program's own ``obs.span`` regions only aggregate a count and a total
per path; they record no thread, parent or per-call key, and the model
layers have none.  So the traced run wraps each layer's public entry point
at runtime, records one span per call, and puts every original back
afterwards.  The service's batch and the controller's round are wrapped
too, as root spans, so a worker's time outside every layer still counts
as the root's self time.  A span is
``(id, name, start, end, thread, parent, key, work)``: ``parent`` is the
innermost span open on the same thread when the call started, ``key`` is
the request (the user id) for per-request calls and the call sequence
number for batched ones, and ``work`` carries per-call counts such as
useful FLOPs.  Spans stay in memory until :meth:`Recorder.write_jsonl`.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from . import flops

COST_CALLS = 20000        # no-op calls per batch when pricing a shim
COST_REPEATS = 5


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: str
    parent: int | None
    key: object
    work: dict | None


class Recorder:
    """Collects spans from any thread; ``enabled=False`` makes shims pass-through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._calls: dict[str, itertools.count] = defaultdict(itertools.count)
        self._local = threading.local()

    def wrap(self, name: str, fn, key=None, work=None):
        """``fn`` timed as span ``name``.

        ``key(*args, **kwargs)`` names the request a per-request call
        serves; without it the key is the call's sequence number.
        ``work(result, *args, **kwargs)`` returns the span's work counts,
        computed after the call returns.
        """
        recorder = self

        def timed(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            recorder.spans.append(Span(
                span_id, name, start, end, threading.current_thread().name,
                parent,
                key(*args, **kwargs) if key is not None
                else next(recorder._calls[name]),
                work(result, *args, **kwargs) if work is not None else None))
            return result

        return timed

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), default=str) + "\n")


def wrapper_cost_s() -> float:
    """Seconds one shimmed call adds to the bare call, priced on a no-op:
    the median over ``COST_REPEATS`` batches of ``COST_CALLS`` calls."""
    def noop():
        return None

    timed = Recorder().wrap("noop", noop)
    costs = []
    for _ in range(COST_REPEATS):
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            timed()
        costs.append((time.perf_counter() - start - bare) / COST_CALLS)
    return statistics.median(costs)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start) - covered
    return out


# --------------------------------------------------------------------------- #
# Shims
# --------------------------------------------------------------------------- #
class Shims:
    """Installs timing wrappers and restores every original on :meth:`remove`."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object, bool]] = []

    def patch(self, owner, attr: str, name: str, key=None, work=None) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self.recorder.wrap(name, original, key, work))

    def remove(self) -> None:
        for owner, attr, original, had_own in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def _forward_work(result, model, contexts, *rest, **kwargs):
    shapes = [(c.n, c.m) for c in contexts]
    return {"contexts": len(shapes),
            "flops": sum(flops.forward_flops(model, n, m) for n, m in shapes)}


def _packed_work(result, model, contexts, n, m, *rest, **kwargs):
    work = _forward_work(result, model, contexts)
    work["packed"] = True
    work["padded_cells"] = n * m * len(contexts)
    work["real_cells"] = sum(c.n * c.m for c in contexts)
    return work


def _him_work(kind):
    def work(result, block, h):
        *lead, n, m, _ = h.shape
        return {"flops": math.prod(lead) * flops.layer_flops(
            block.num_attributes, block.attr_dim, n, m)[kind]}
    return work


def install(recorder: Recorder, service=None, controller=None) -> Shims:
    """Wrap the layers a workload exercises; returns the installed shims.

    Serving layers are wrapped on the service instance (its batch, sampler
    and graph store) and on the modules it resolves at call time; training
    and model layers are wrapped on their classes, which also covers the
    models the online loop clones inside a round.
    """
    from repro import nn
    from repro.core.encoder import ContextEncoder
    from repro.core.him import HIM
    from repro.core.model import HIRE
    from repro.core.trainer import HIRETrainer
    from repro.serve import service as service_module

    shims = Shims(recorder)
    inference = nn.inference
    shims.patch(inference, "forward_inference", "forward",
                work=lambda result, model, context, *rest, **kwargs:
                _forward_work(result, model, [context]))
    shims.patch(inference, "forward_inference_many", "forward",
                work=_forward_work)
    shims.patch(inference, "forward_inference_packed", "forward",
                work=_packed_work)
    shims.patch(HIRETrainer, "sample_training_context", "trainer.sample")
    shims.patch(HIRE, "forward_many", "trainer.forward")
    shims.patch(nn.Tensor, "backward", "trainer.backward")
    shims.patch(nn.Lookahead, "step", "trainer.optim")
    shims.patch(ContextEncoder, "forward", "model.encoder")
    shims.patch(HIM, "interact_users", "model.mbu", work=_him_work("mbu"))
    shims.patch(HIM, "interact_items", "model.mbi", work=_him_work("mbi"))
    shims.patch(HIM, "interact_attributes", "model.mba",
                work=_him_work("mba"))
    if service is not None:
        shims.patch(service, "_process_batch", "serve.batch")
        shims.patch(service_module, "assemble_user_chunks", "assemble",
                    key=lambda graph, sampler, user, *rest, **kwargs: int(user))
        shims.patch(service.sampler, "sample", "sample",
                    key=lambda graph, **kwargs: int(kwargs["target_users"][0]))
        shims.patch(service.graph_store, "apply", "dataplane.apply")
    if controller is not None:
        shims.patch(controller, "run_round", "online.round")
        shims.patch(controller.trainer, "fine_tune", "online.train")
        shims.patch(controller.gate, "evaluate", "online.probe")
        shims.patch(controller.registry, "add", "online.swap")
    return shims
