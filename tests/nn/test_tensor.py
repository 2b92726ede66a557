"""Autograd engine tests: every op's gradient is checked against finite
differences, plus graph mechanics (accumulation, detach, no_grad)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, is_grad_enabled, no_grad

# Finite-difference gradchecks: a float64 oracle.
pytestmark = pytest.mark.usefixtures("float64")

EPS = 1e-6
TOL = 1e-6


def numeric_grad(fn, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        plus, minus = x.copy(), x.copy()
        plus[idx] += EPS
        minus[idx] -= EPS
        grad[idx] = (fn(plus) - fn(minus)) / (2 * EPS)
    return grad


def check_grad(build, x: np.ndarray, tol: float = TOL):
    """Compare autograd gradient of sum(build(x)) with finite differences."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.sum().backward()
    expected = numeric_grad(lambda arr: build(Tensor(arr)).sum().item(), x)
    np.testing.assert_allclose(t.grad, expected, atol=tol, rtol=tol)


class TestElementwiseGrads:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add(self):
        check_grad(lambda t: t + 3.0, self.rng.normal(size=(3, 4)))

    def test_sub(self):
        check_grad(lambda t: 5.0 - t, self.rng.normal(size=(3, 4)))

    def test_mul(self):
        check_grad(lambda t: t * t, self.rng.normal(size=(2, 5)))

    def test_div(self):
        check_grad(lambda t: 1.0 / t, self.rng.uniform(1.0, 2.0, size=(4,)))

    def test_neg(self):
        check_grad(lambda t: -t * 2.0, self.rng.normal(size=(3,)))

    def test_pow(self):
        check_grad(lambda t: t**3, self.rng.uniform(0.5, 1.5, size=(3, 2)))

    def test_exp(self):
        check_grad(lambda t: t.exp(), self.rng.normal(size=(3, 3)))

    def test_log(self):
        check_grad(lambda t: t.log(), self.rng.uniform(0.5, 2.0, size=(4,)))

    def test_sqrt(self):
        check_grad(lambda t: t.sqrt(), self.rng.uniform(0.5, 2.0, size=(4,)))

    def test_tanh(self):
        check_grad(lambda t: t.tanh(), self.rng.normal(size=(3, 4)))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid(), self.rng.normal(size=(3, 4)))

    def test_relu(self):
        # Keep values away from the kink where finite differences lie.
        x = self.rng.normal(size=(4, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_grad(lambda t: t.relu(), x)

    def test_abs(self):
        x = self.rng.normal(size=(4,))
        x[np.abs(x) < 0.1] = 0.5
        check_grad(lambda t: t.abs(), x)

    def test_clip(self):
        x = np.array([-2.0, -0.5, 0.3, 0.9, 2.5])
        check_grad(lambda t: t.clip(-1.0, 1.0), x)


class TestBroadcasting:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_add_broadcast_rows(self):
        other = Tensor(self.rng.normal(size=(4,)))
        check_grad(lambda t: t + other, self.rng.normal(size=(3, 4)))

    def test_mul_broadcast_to_smaller(self):
        big = self.rng.normal(size=(3, 4))
        t = Tensor(self.rng.normal(size=(4,)), requires_grad=True)
        out = Tensor(big) * t
        out.sum().backward()
        np.testing.assert_allclose(t.grad, big.sum(axis=0), atol=TOL)

    def test_broadcast_keepdim_axis(self):
        t = Tensor(self.rng.normal(size=(3, 1)), requires_grad=True)
        out = t * Tensor(np.ones((3, 5)))
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.full((3, 1), 5.0), atol=TOL)


class TestMatmulGrads:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_2d(self):
        w = Tensor(self.rng.normal(size=(4, 2)))
        check_grad(lambda t: t @ w, self.rng.normal(size=(3, 4)))

    def test_2d_rhs(self):
        x = Tensor(self.rng.normal(size=(3, 4)))
        check_grad(lambda t: x @ t, self.rng.normal(size=(4, 2)))

    def test_batched(self):
        w = Tensor(self.rng.normal(size=(2, 4, 3)))
        check_grad(lambda t: t @ w, self.rng.normal(size=(2, 5, 4)))

    def test_batched_broadcast_lhs(self):
        w = Tensor(self.rng.normal(size=(4, 3)))
        check_grad(lambda t: t @ w, self.rng.normal(size=(2, 5, 4)))

    def test_vector_vector(self):
        v = Tensor(self.rng.normal(size=(4,)))
        check_grad(lambda t: t @ v, self.rng.normal(size=(4,)))

    def test_matrix_vector(self):
        v = Tensor(self.rng.normal(size=(4,)))
        check_grad(lambda t: t @ v, self.rng.normal(size=(3, 4)))

    def test_vector_matrix(self):
        m = Tensor(self.rng.normal(size=(4, 3)))
        check_grad(lambda t: t @ m, self.rng.normal(size=(4,)))


class TestShapeOps:
    def setup_method(self):
        self.rng = np.random.default_rng(5)

    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6, 2) * 2.0), self.rng.normal(size=(3, 4)))

    def test_transpose_default(self):
        check_grad(lambda t: t.T * 3.0, self.rng.normal(size=(3, 4)))

    def test_transpose_axes(self):
        check_grad(lambda t: t.transpose(2, 0, 1), self.rng.normal(size=(2, 3, 4)))

    def test_swapaxes(self):
        check_grad(lambda t: t.swapaxes(0, 2), self.rng.normal(size=(2, 3, 4)))

    def test_getitem_slice(self):
        check_grad(lambda t: t[1:, :2], self.rng.normal(size=(3, 4)))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        t = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        t[idx].sum().backward()
        expected = np.zeros((4, 3))
        np.add.at(expected, idx, 1.0)
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_basic_index_variants(self):
        # Basic indexing (ints, slices, Ellipsis, None) takes the direct
        # assignment backward — same gradients as the np.add.at scatter.
        for key in (1, slice(None, None, 2), (slice(1, None), 0),
                    (Ellipsis, slice(0, 2)), (None, slice(None)),
                    (0, Ellipsis, slice(None, None, -1))):
            t = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
            (t[key] * 2.0).sum().backward()
            expected = np.zeros((3, 4))
            expected[key] += 2.0
            np.testing.assert_array_equal(t.grad, expected)

    def test_getitem_boolean_mask_stays_on_scatter_path(self):
        mask = np.array([True, False, True, True])
        t = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        t[mask].sum().backward()
        expected = np.zeros((4, 3))
        expected[mask] = 1.0
        np.testing.assert_array_equal(t.grad, expected)


class TestReductions:
    def setup_method(self):
        self.rng = np.random.default_rng(9)

    def test_sum_all(self):
        check_grad(lambda t: t.sum() * 2.0, self.rng.normal(size=(3, 4)))

    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=0), self.rng.normal(size=(3, 4)))

    def test_sum_axis_keepdims(self):
        check_grad(lambda t: t.sum(axis=1, keepdims=True) * t,
                   self.rng.normal(size=(3, 4)))

    def test_sum_negative_axis(self):
        check_grad(lambda t: t.sum(axis=-1), self.rng.normal(size=(2, 3, 4)))

    def test_mean(self):
        check_grad(lambda t: t.mean(axis=1), self.rng.normal(size=(3, 4)))

    def test_mean_all(self):
        check_grad(lambda t: t.mean(), self.rng.normal(size=(5,)))

    def test_var(self):
        check_grad(lambda t: t.var(axis=-1), self.rng.normal(size=(3, 4)), tol=1e-5)

    def test_max_all(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0]])
        t = Tensor(x, requires_grad=True)
        t.max().backward()
        expected = np.zeros_like(x)
        expected[0, 1] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_max_axis(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 2.0, 3.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.zeros_like(x)
        expected[0, 1] = 1.0
        expected[1, 0] = 1.0
        np.testing.assert_allclose(t.grad, expected)


class TestGraphMechanics:
    def test_grad_accumulates(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * 3.0).sum().backward()
        (t * 4.0).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_shared_subexpression(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = t * t
        (y + y).sum().backward()
        np.testing.assert_allclose(t.grad, [12.0])

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = t.detach() * 5.0
        assert not out.requires_grad

    def test_no_grad_context(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2.0
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_backward_requires_scalar_without_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_on_non_grad_tensor(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_backward_grad_shape_mismatch(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t * 1.0
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_comparison_returns_bool_array(self):
        t = Tensor(np.array([1.0, 3.0]))
        assert (t > 2.0).dtype == bool
        assert (t < 2.0).tolist() == [True, False]

    def test_repr_and_helpers(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_composite_expression_gradcheck(rows, cols, seed):
    """Random composite expressions match finite-difference gradients."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, size=(rows, cols))
    w = Tensor(rng.normal(size=(cols, 3)))

    def build(t):
        return ((t @ w).tanh() * 2.0 + t.sum(axis=1, keepdims=True)).sigmoid()

    check_grad(build, x, tol=1e-5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_chain_rule_linearity(seed):
    """backward(a·g) == a · backward(g) for any upstream gradient."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 3))
    scale = float(rng.uniform(0.5, 3.0))

    t1 = Tensor(x, requires_grad=True)
    out1 = (t1 * t1).sum()
    out1.backward(np.array(scale))

    t2 = Tensor(x, requires_grad=True)
    out2 = (t2 * t2).sum()
    out2.backward(np.array(1.0))

    np.testing.assert_allclose(t1.grad, scale * t2.grad, rtol=1e-10)
