"""Functional ops: softmax/log-softmax numerics, stack/concat gradients,
losses, dropout, embedding lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn import Tensor

from .test_tensor import check_grad, numeric_grad


@pytest.mark.usefixtures("float64")
class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        probs = F.softmax(x, axis=-1).data
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4), atol=1e-12)
        assert (probs > 0).all()

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_values_stable(self):
        x = Tensor(np.array([[1e6, -1e6, 0.0]]))
        probs = F.softmax(x).data
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs[0, 0], 1.0)

    def test_gradient(self):
        check_grad(lambda t: F.softmax(t, axis=-1) ** 2,
                   np.random.default_rng(2).normal(size=(3, 4)))

    def test_gradient_middle_axis(self):
        check_grad(lambda t: F.softmax(t, axis=1) * 3.0,
                   np.random.default_rng(3).normal(size=(2, 3, 4)))


@pytest.mark.usefixtures("float64")
class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = np.random.default_rng(4).normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data),
            atol=1e-12,
        )

    def test_gradient(self):
        check_grad(lambda t: F.log_softmax(t) * 0.5,
                   np.random.default_rng(5).normal(size=(2, 4)))


class TestStackConcat:
    def test_stack_shape_and_grad(self):
        rng = np.random.default_rng(6)
        xs = [rng.normal(size=(2, 3)) for _ in range(4)]
        tensors = [Tensor(x, requires_grad=True) for x in xs]
        out = F.stack(tensors, axis=1)
        assert out.shape == (2, 4, 3)
        (out * 2.0).sum().backward()
        for t in tensors:
            np.testing.assert_allclose(t.grad, np.full((2, 3), 2.0))

    def test_stack_axis0_values(self):
        a, b = Tensor(np.zeros((2,))), Tensor(np.ones((2,)))
        out = F.stack([a, b], axis=0)
        np.testing.assert_allclose(out.data, [[0, 0], [1, 1]])

    def test_concatenate_grad_split(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = F.concatenate([a, b], axis=-1)
        assert out.shape == (2, 5)
        weights = rng.normal(size=(2, 5))
        (out * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(a.grad, weights[:, :3])
        np.testing.assert_allclose(b.grad, weights[:, 3:])

    def test_concatenate_axis0(self):
        a = Tensor(np.ones((1, 2)))
        b = Tensor(np.zeros((3, 2)))
        assert F.concatenate([a, b], axis=0).shape == (4, 2)


@pytest.mark.usefixtures("float64")
class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0, 3.0]))
        target = np.array([1.0, 1.0, 1.0])
        assert F.mse_loss(pred, target).item() == pytest.approx(5.0 / 3.0)

    def test_mse_gradient(self):
        target = np.array([0.5, -0.5, 1.0])
        check_grad(lambda t: F.mse_loss(t, target),
                   np.random.default_rng(8).normal(size=(3,)))

    def test_masked_mse_selects_cells(self):
        pred = Tensor(np.array([[1.0, 5.0], [2.0, 2.0]]))
        target = np.array([[0.0, 4.0], [0.0, 0.0]])
        mask = np.array([[False, True], [False, False]])
        assert F.masked_mse_loss(pred, target, mask).item() == pytest.approx(1.0)

    def test_masked_mse_empty_mask_raises(self):
        with pytest.raises(ValueError):
            F.masked_mse_loss(Tensor(np.ones((2, 2))), np.ones((2, 2)),
                              np.zeros((2, 2), dtype=bool))

    def test_masked_mse_gradient_zero_outside_mask(self):
        rng = np.random.default_rng(9)
        target = rng.normal(size=(3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = mask[2, 2] = True
        t = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        F.masked_mse_loss(t, target, mask).backward()
        assert (t.grad[~mask] == 0).all()
        assert (t.grad[mask] != 0).all()

    def test_bce_loss_perfect_prediction_near_zero(self):
        pred = Tensor(np.array([0.999999, 0.000001]))
        target = np.array([1.0, 0.0])
        assert F.bce_loss(pred, target).item() < 1e-4

    def test_bce_gradient(self):
        target = np.array([1.0, 0.0, 1.0])
        check_grad(lambda t: F.bce_loss(t.sigmoid(), target),
                   np.random.default_rng(10).normal(size=(3,)), tol=1e-5)

    def test_l2_penalty(self):
        params = [Tensor(np.array([3.0])), Tensor(np.array([4.0]))]
        assert F.l2_penalty(params).item() == pytest.approx(25.0)

    def test_l2_penalty_empty(self):
        assert F.l2_penalty([]).item() == 0.0


class TestDropout:
    def test_eval_mode_is_identity(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(5, 5)))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(5, 5)))
        out = F.dropout(x, 0.0, rng, training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(13)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropped_entries_are_zero(self):
        rng = np.random.default_rng(14)
        out = F.dropout(Tensor(np.ones(1000)), 0.5, rng, training=True)
        zeros = (out.data == 0).sum()
        assert 350 < zeros < 650


class TestEmbeddingLookup:
    def test_lookup_values(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        out = F.embedding_lookup(table, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_gradient_scatter_adds(self):
        table = Tensor(np.zeros((4, 3)), requires_grad=True)
        out = F.embedding_lookup(table, np.array([1, 1, 3]))
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(table.grad, expected)

    def test_2d_indices(self):
        table = Tensor(np.random.default_rng(15).normal(size=(5, 2)), requires_grad=True)
        idx = np.array([[0, 1], [2, 0]])
        out = F.embedding_lookup(table, idx)
        assert out.shape == (2, 2, 2)
        out.sum().backward()
        assert table.grad[0].sum() == pytest.approx(4.0)  # index 0 used twice


@pytest.mark.usefixtures("float64")
class TestGelu:
    def test_known_values(self):
        out = F.gelu(Tensor(np.array([0.0]))).item()
        assert out == pytest.approx(0.0, abs=1e-9)
        assert F.gelu(Tensor(np.array([10.0]))).item() == pytest.approx(10.0, abs=1e-3)

    def test_gradient(self):
        check_grad(lambda t: F.gelu(t), np.random.default_rng(16).normal(size=(4,)),
                   tol=1e-5)


class TestPadTo:
    def test_pads_short(self):
        out = F.pad_to(np.array([1.0, 2.0]), 4, value=-1.0)
        np.testing.assert_allclose(out, [1, 2, -1, -1])

    def test_truncates_long(self):
        out = F.pad_to(np.arange(5.0), 3)
        np.testing.assert_allclose(out, [0, 1, 2])


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_softmax_is_distribution(size, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(scale=5.0, size=(size, size)))
    probs = F.softmax(x, axis=-1).data
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(size), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), parts=st.integers(2, 4))
def test_property_concat_then_split_roundtrip(seed, parts):
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 4, size=parts)
    tensors = [Tensor(rng.normal(size=(3, int(w)))) for w in widths]
    merged = F.concatenate(tensors, axis=-1)
    offset = 0
    for t, w in zip(tensors, widths):
        np.testing.assert_array_equal(merged.data[:, offset:offset + w], t.data)
        offset += int(w)
