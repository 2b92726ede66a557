"""Per-op hooks: instrumentation is reversible, attributed, and exact."""

import numpy as np
import pytest

from repro import nn, obs
from repro.nn import functional as F
from repro.obs import ophooks


@pytest.fixture(autouse=True)
def clean_state():
    obs.reset_spans()
    obs.enable_profiling(False)
    yield
    ophooks.uninstrument()
    obs.reset_spans()
    obs.enable_profiling(False)


class TestInstrumentation:
    def test_instrument_wraps_and_uninstrument_restores(self):
        originals = {name: getattr(F, name) for name in ophooks.HOT_OPS}
        ophooks.instrument()
        assert ophooks.instrumented()
        for name in ophooks.HOT_OPS:
            assert getattr(getattr(F, name), "__wrapped_op__") is originals[name]
        ophooks.uninstrument()
        assert not ophooks.instrumented()
        for name in ophooks.HOT_OPS:
            assert getattr(F, name) is originals[name]

    def test_double_instrument_is_idempotent(self):
        ophooks.instrument()
        wrapped = F.linear
        ophooks.instrument()
        assert F.linear is wrapped  # not double-wrapped
        ophooks.uninstrument()

    def test_context_manager(self):
        original = F.gelu
        with ophooks.op_hooks():
            assert F.gelu is not original
        assert F.gelu is original

    def test_nested_context_does_not_unwrap_early(self):
        with ophooks.op_hooks():
            wrapped = F.linear
            with ophooks.op_hooks():
                pass
            assert F.linear is wrapped
        assert not ophooks.instrumented()


class TestAttribution:
    def _small_linear_call(self):
        x = nn.Tensor(np.ones((2, 3)))
        w = nn.Tensor(np.ones((3, 4)))
        return F.linear(x, w)

    def test_records_op_span_with_fused_tag(self):
        with ophooks.op_hooks():
            self._small_linear_call()
        totals = obs.span_totals()
        assert "op/linear" in totals
        assert totals["op/linear"].count == 1

    def test_nested_under_current_span(self):
        with obs.profiling(), ophooks.op_hooks():
            with obs.span("forward"):
                self._small_linear_call()
        assert "forward/op/linear" in obs.span_totals()

    def test_wrapped_output_matches_original(self):
        x = nn.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        w = nn.Tensor(np.ones((4, 2)))
        expected = F.linear(x, w).data
        with ophooks.op_hooks():
            wrapped = F.linear(x, w).data
        np.testing.assert_array_equal(wrapped, expected)

    def test_model_forward_records_hot_ops(self, ml_dataset, ml_split):
        from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
        model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                            attr_dim=4, seed=0))
        trainer = HIRETrainer(model, ml_split, config=TrainerConfig(
            steps=2, batch_size=1, context_users=6, context_items=6, seed=0))
        with ophooks.op_hooks():
            trainer.train_step()
        recorded = set(obs.span_totals())
        # The HIRE hot path exercises at least these kernels; MBA runs as
        # one attribute_attention node.
        for op in ("linear", "layer_norm", "embedding_lookup",
                   "multi_head_attention_qkv", "attribute_attention",
                   "masked_mse_loss"):
            assert f"op/{op}" in recorded
