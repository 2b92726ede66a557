"""MHSA: shapes, permutation equivariance (Eq. 5), attention capture,
gradients, and batching semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import MultiHeadSelfAttention, Tensor

from .test_tensor import check_grad


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestShapes:
    def test_output_shape_2d(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        assert mhsa(Tensor(rng.normal(size=(5, 8)))).shape == (5, 8)

    def test_output_shape_batched(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        assert mhsa(Tensor(rng.normal(size=(3, 4, 5, 8)))).shape == (3, 4, 5, 8)

    def test_heads_must_divide(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, rng)

    def test_wrong_last_dim_raises(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        with pytest.raises(ValueError):
            mhsa(Tensor(rng.normal(size=(5, 6))))

    def test_single_token(self, rng):
        mhsa = MultiHeadSelfAttention(8, 4, rng)
        out = mhsa(Tensor(rng.normal(size=(1, 8))))
        assert out.shape == (1, 8)
        assert np.isfinite(out.data).all()


class TestEquivariance:
    def test_permutation_equivariance(self, rng):
        """Eq. 5: Π∘MHSA(X) == MHSA(Π∘X)."""
        mhsa = MultiHeadSelfAttention(16, 4, rng)
        x = rng.normal(size=(7, 16))
        perm = rng.permutation(7)
        out = mhsa(Tensor(x)).data
        out_perm = mhsa(Tensor(x[perm])).data
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-10)

    def test_batch_independence(self, rng):
        """Each leading batch element is attended independently."""
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        x = rng.normal(size=(3, 5, 8))
        full = mhsa(Tensor(x)).data
        for b in range(3):
            single = mhsa(Tensor(x[b])).data
            np.testing.assert_allclose(full[b], single, atol=1e-10)


class TestAttentionCapture:
    def test_capture_disabled_by_default(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        mhsa(Tensor(rng.normal(size=(4, 8))))
        assert mhsa.last_attention is None

    def test_captured_weights_are_row_stochastic(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        mhsa.capture_attention = True
        mhsa(Tensor(rng.normal(size=(4, 8))))
        attn = mhsa.last_attention
        assert attn.shape == (2, 4, 4)
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones((2, 4)), atol=1e-10)

    def test_captured_batched_shape(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        mhsa.capture_attention = True
        mhsa(Tensor(rng.normal(size=(3, 4, 8))))
        assert mhsa.last_attention.shape == (3, 2, 4, 4)


@pytest.mark.usefixtures("float64")
class TestGradients:
    def test_gradcheck_through_attention(self, rng):
        mhsa = MultiHeadSelfAttention(4, 2, rng)
        check_grad(lambda t: mhsa(t), rng.normal(size=(3, 4)), tol=1e-5)

    def test_all_projections_receive_gradient(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        mhsa(Tensor(rng.normal(size=(4, 8)))).sum().backward()
        assert mhsa.w_qkv.grad is not None
        assert mhsa.w_qkv.grad.shape == (8, 24)
        assert mhsa.w_output.weight.grad is not None

    def test_trainable_to_identity(self, rng):
        """MHSA can learn to reproduce its input (sanity optimisation)."""
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        x = rng.normal(size=(4, 6, 8))
        optimizer = nn.Adam(mhsa.parameters(), lr=1e-2)
        first = None
        for _ in range(150):
            optimizer.zero_grad()
            loss = nn.functional.mse_loss(mhsa(Tensor(x)), Tensor(x))
            if first is None:
                first = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first * 0.2


@settings(max_examples=20, deadline=None)
@given(
    tokens=st.integers(2, 8),
    heads=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_equivariance_random(tokens, heads, seed):
    """Permutation equivariance holds for arbitrary sizes and permutations."""
    rng = np.random.default_rng(seed)
    mhsa = MultiHeadSelfAttention(8, heads, rng)
    x = rng.normal(size=(tokens, 8))
    perm = rng.permutation(tokens)
    np.testing.assert_allclose(
        mhsa(Tensor(x)).data[perm],
        mhsa(Tensor(x[perm])).data,
        atol=1e-9,
    )
