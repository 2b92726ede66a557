"""HIM block: layer routing, ablation flags, per-layer equivariance,
attention capture."""

import numpy as np
import pytest

from repro.core.him import HIM
from repro.nn import Tensor


H_ATTRS, F_DIM, HEADS = 5, 8, 2
EMBED = H_ATTRS * F_DIM


@pytest.fixture
def him():
    return HIM(H_ATTRS, F_DIM, HEADS, np.random.default_rng(0))


@pytest.fixture
def h_input():
    return Tensor(np.random.default_rng(1).normal(size=(4, 6, EMBED)))


class TestForward:
    def test_shape_preserved(self, him, h_input):
        assert him(h_input).shape == (4, 6, EMBED)

    def test_wrong_dim_rejected(self, him):
        with pytest.raises(ValueError):
            him(Tensor(np.zeros((4, 6, EMBED + 1))))

    def test_needs_one_layer(self):
        with pytest.raises(ValueError):
            HIM(H_ATTRS, F_DIM, HEADS, np.random.default_rng(0),
                use_user=False, use_item=False, use_attr=False)

    def test_gradients_flow_through_all_layers(self, him, h_input):
        h_input.requires_grad = True
        him(h_input).sum().backward()
        assert him.user_attention.w_qkv.grad is not None
        assert him.item_attention.w_qkv.grad is not None
        assert him.attr_attention.w_qkv.grad is not None


class TestAblationFlags:
    @pytest.mark.parametrize("flags", [
        dict(use_user=False),
        dict(use_item=False),
        dict(use_attr=False),
        dict(use_user=False, use_item=False),
        dict(use_user=False, use_attr=False),
        dict(use_item=False, use_attr=False),
    ])
    def test_disabled_layers_absent(self, flags):
        him = HIM(H_ATTRS, F_DIM, HEADS, np.random.default_rng(0), **flags)
        if not flags.get("use_user", True):
            assert not hasattr(him, "user_attention")
        if not flags.get("use_item", True):
            assert not hasattr(him, "item_attention")
        if not flags.get("use_attr", True):
            assert not hasattr(him, "attr_attention")
        out = him(Tensor(np.random.default_rng(1).normal(size=(3, 4, EMBED))))
        assert out.shape == (3, 4, EMBED)

    def test_variant_outputs_differ(self, h_input):
        full = HIM(H_ATTRS, F_DIM, HEADS, np.random.default_rng(0))
        no_user = HIM(H_ATTRS, F_DIM, HEADS, np.random.default_rng(0), use_user=False)
        assert not np.allclose(full(h_input).data, no_user(h_input).data)


class TestEquivariance:
    def test_user_axis(self, him, h_input):
        """Permuting users permutes the output rows identically."""
        perm = np.random.default_rng(2).permutation(4)
        out = him(h_input).data
        out_perm = him(Tensor(h_input.data[perm])).data
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-9)

    def test_item_axis(self, him, h_input):
        perm = np.random.default_rng(3).permutation(6)
        out = him(h_input).data
        out_perm = him(Tensor(h_input.data[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-9)

    def test_both_axes(self, him, h_input):
        rng = np.random.default_rng(4)
        up, ip = rng.permutation(4), rng.permutation(6)
        out = him(h_input).data
        out_perm = him(Tensor(h_input.data[np.ix_(up, ip)])).data
        np.testing.assert_allclose(out[np.ix_(up, ip)], out_perm, atol=1e-9)


class TestAttentionCapture:
    def test_capture_shapes(self, him, h_input):
        him.set_capture(True)
        him(h_input)
        captured = him.captured_attention()
        # MBU: one (heads, n, n) matrix per item column.
        assert captured["user"].shape == (6, HEADS, 4, 4)
        # MBI: one (heads, m, m) per user row.
        assert captured["item"].shape == (4, HEADS, 6, 6)
        # MBA: per cell, attr_heads × h × h.
        assert captured["attr"].shape[:2] == (4, 6)
        assert captured["attr"].shape[-2:] == (H_ATTRS, H_ATTRS)

    def test_capture_off_returns_empty(self, him, h_input):
        him.set_capture(False)
        assert him.captured_attention() == {}

    def test_attention_rows_stochastic(self, him, h_input):
        him.set_capture(True)
        him(h_input)
        attn = him.captured_attention()["user"]
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones(attn.shape[:-1]),
                                   atol=1e-10)


    def test_attr_capture_matches_reference(self, him, h_input):
        """MBA's captured weights keep the documented (n, m, heads, h, h)
        layout on the token-major path, with the row-major reference's
        values."""
        from ..nn.reference_kernels import mba_reference

        him.set_capture(True)
        captured = {}
        for fused, forward in ((True, him.interact_attributes),
                               (False, lambda h: mba_reference(him, h))):
            forward(h_input)
            captured[fused] = him.captured_attention()["attr"]
        heads = him.attr_attention.num_heads
        assert captured[True].shape == (4, 6, heads, H_ATTRS, H_ATTRS)
        assert captured[True].shape == captured[False].shape
        np.testing.assert_allclose(captured[True], captured[False],
                                   atol=1e-10, rtol=0)
        np.testing.assert_allclose(captured[True].sum(axis=-1), 1.0,
                                   atol=1e-12)


class TestAttrHeadFallback:
    def test_heads_reduced_to_divide_attr_dim(self):
        """attr_dim=6 with 4 heads falls back to 3 heads (largest divisor)."""
        him = HIM(4, 6, 4, np.random.default_rng(0))
        assert him.attr_attention.num_heads == 3
