"""float32 end to end: a default-dtype train step, a served request and one
online round (fine-tune, probe, promotion) hold every parameter, gradient,
optimiser-state array and engine arena at float32, and no autograd node
computes a float64 value that ``Tensor.backward`` would silently cast back.
One stray float64 intermediate would give back much of float32's gain."""

import numpy as np
import pytest

from repro import nn
from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from repro.eval.tasks import build_eval_tasks
from repro.nn import Tensor, inference
from repro.nn.tensor import SparseRowGrad
from repro.online import (
    FineTuneConfig,
    GateConfig,
    IncrementalTrainer,
    OnlineConfig,
    OnlineController,
    PromotionGate,
)
from repro.serve import ModelRegistry, PredictionService

F32 = np.dtype(np.float32)


@pytest.fixture
def op_dtypes(monkeypatch):
    """Every autograd node built while the test runs, as
    ``(op, forward dtype, [(parent dtype, returned grad dtype), ...])``;
    the grad list fills when the node's backward runs."""
    records = []
    from_op = Tensor._from_op.__func__

    def recording_from_op(cls, data, parents, backward):
        grads = []
        records.append((backward.__qualname__, data.dtype, grads))

        def checked(g):
            pairs = list(backward(g))
            for parent, pgrad in pairs:
                if pgrad is not None:
                    values = (pgrad.values if isinstance(pgrad, SparseRowGrad)
                              else np.asarray(pgrad))
                    grads.append((parent.data.dtype, values.dtype))
            return pairs

        return from_op(cls, data, parents, checked)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording_from_op))
    return records


def assert_float32_graph(records):
    assert records, "no autograd node was recorded"
    forward = {op for op, dtype, _ in records if dtype != F32}
    assert not forward, f"float64 forward values from {sorted(forward)}"
    assert any(grads for _, _, grads in records), "no backward ran"
    leaks = {op for op, _, grads in records
             for parent, grad in grads if parent != F32 or grad != F32}
    assert not leaks, f"float64 gradients returned by {sorted(leaks)}"


def assert_float32_arrays(label, arrays):
    arrays = list(arrays)
    assert arrays, f"no {label} arrays"
    dtypes = {np.asarray(array).dtype for array in arrays}
    assert dtypes == {F32}, f"{label}: {dtypes}"


def float_arena_dtypes(states):
    """Dtypes of the engine's floating arenas.  ``rflt`` is left out: it
    stages the context's stored ratings into integer rating levels in the
    ratings' own dtype, exactly as the Tensor encoder does, and no model
    value passes through it."""
    return {dtype for state in states
            for (name, dtype) in state.workspace._arenas
            if np.issubdtype(dtype, np.floating) and name != "rflt"}


def test_default_dtype_is_float32_everywhere(ml_dataset, ml_split,
                                             op_dtypes):
    assert nn.get_default_dtype() == F32
    model = HIRE(ml_dataset, HIREConfig(num_blocks=2, num_heads=2,
                                        attr_dim=4, seed=0))
    trainer = HIRETrainer(model, ml_split, config=TrainerConfig(
        steps=2, batch_size=2, context_users=8, context_items=8, seed=0))

    # A train step: parameters, grads, LAMB moments, Lookahead slow weights.
    trainer.train_step()
    params = list(model.parameters())
    assert_float32_arrays("parameter", (p.data for p in params))
    assert all(p.grad is not None for p in params)
    assert_float32_arrays("grad", (p.grad for p in params))
    lamb = trainer.optimizer.inner
    assert_float32_arrays("optimiser state",
                          [*lamb._m, *lamb._v, *trainer.optimizer._slow])
    assert_float32_graph(op_dtypes)

    # A served request: the worker's engine arenas.
    model.eval()
    tasks = build_eval_tasks(ml_split, "user", min_query=2, seed=1,
                             max_tasks=2)
    registry = ModelRegistry(ml_dataset)
    registry.add("base", model)
    before = set(inference._LEDGER)
    with PredictionService.from_split(registry, ml_split, tasks) as service:
        task = tasks[0]
        assert service.predict(task.user, task.query_items,
                               task.support_items).size
        workers = [s for s in list(inference._LEDGER) if s not in before]
        assert float_arena_dtypes(workers) == {F32}

    # One online round on the caller's thread: fine-tune, probe, promote.
    op_dtypes.clear()
    inference.clear_cache()
    gate = PromotionGate(ml_split, tasks, GateConfig(
        context_users=8, context_items=8, accept_margin=1e9))
    tuner = IncrementalTrainer(ml_split, config=FineTuneConfig(
        steps=2, batch_size=2, context_users=8, context_items=8))
    controller = OnlineController(registry, tuner, gate,
                                  config=OnlineConfig(min_new_ratings=1))
    controller.ingest(ml_split.train_ratings()[:4])
    assert controller.run_round()["status"] == "promoted"
    candidate = registry.active()[1]
    assert candidate is not model
    assert_float32_arrays("candidate parameter",
                          (p.data for p in candidate.parameters()))
    assert_float32_graph(op_dtypes)
    assert float_arena_dtypes([inference._CACHE.state]) == {F32}
    inference.clear_cache()
