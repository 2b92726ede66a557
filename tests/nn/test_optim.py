"""Optimisers: analytic single-step checks, Lookahead mechanics, and
convergence on convex problems."""

import numpy as np
import pytest

from repro import nn
from repro.nn import LAMB, SGD, Adam, Lookahead, Parameter


def quadratic_loss(p: Parameter) -> nn.Tensor:
    return (p * p).sum()


class TestSGD:
    def test_single_step(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = SGD([p], lr=0.1)
        quadratic_loss(p).backward()
        opt.step()
        np.testing.assert_allclose(p.data, [0.8, -1.6])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(2):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        # step1: v=2, p=0.8 ; step2: v=0.9*2+1.6=3.4, p=0.8-0.34=0.46
        np.testing.assert_allclose(p.data, [0.46])

    def test_weight_decay(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        np.testing.assert_allclose(p.data, [0.9])

    def test_skips_none_grads(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-4


class TestAdam:
    def test_first_step_magnitude(self):
        """Adam's bias-corrected first step ≈ lr regardless of grad scale."""
        for scale in (1.0, 100.0):
            p = Parameter(np.array([1.0]))
            opt = Adam([p], lr=0.01)
            opt.zero_grad()
            (p * scale).sum().backward()
            opt.step()
            assert 1.0 - p.data[0] == pytest.approx(0.01, rel=1e-4)

    def test_converges_faster_than_sgd_on_ill_conditioned(self):
        def run(opt_cls, **kw):
            p = Parameter(np.array([1.0, 1.0]))
            scale = nn.Tensor(np.array([100.0, 1.0]))
            opt = opt_cls([p], **kw)
            for _ in range(200):
                opt.zero_grad()
                ((p * scale) ** 2).sum().backward()
                opt.step()
            return np.abs(p.data).max()

        assert run(Adam, lr=0.05) < run(SGD, lr=1e-5)


class TestLAMB:
    def test_trust_ratio_scales_update(self):
        """Parameters with larger norms take proportionally larger steps."""
        small = Parameter(np.array([0.01]))
        large = Parameter(np.array([10.0]))
        opt = LAMB([small, large], lr=0.1)
        opt.zero_grad()
        (small * 1.0 + large * 1.0).sum().backward()
        opt.step()
        step_small = abs(0.01 - small.data[0])
        step_large = abs(10.0 - large.data[0])
        assert step_large > step_small * 100

    def test_zero_weight_falls_back_to_unit_trust(self):
        p = Parameter(np.zeros(2))
        opt = LAMB([p], lr=0.1)
        opt.zero_grad()
        (p + 1.0).sum().backward()
        opt.step()
        assert np.isfinite(p.data).all()
        assert (p.data != 0).all()

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = LAMB([p], lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.abs(p.data).max() < 0.1


class TestLookahead:
    def test_slow_update_every_k_steps(self):
        p = Parameter(np.array([1.0]))
        inner = SGD([p], lr=0.1)
        look = Lookahead(inner, alpha=0.5, k=2)
        start = p.data.copy()
        for step in range(2):
            look.zero_grad()
            quadratic_loss(p).backward()
            look.step()
        # After k steps, weights are pulled halfway back toward the start.
        fast_after_2 = 0.8 * 0.8  # two SGD steps on x^2 with lr .1
        expected = start + 0.5 * (fast_after_2 - start)
        np.testing.assert_allclose(p.data, expected)

    def test_invalid_hyperparameters(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            Lookahead(SGD([p], lr=0.1), alpha=0.0)
        with pytest.raises(ValueError):
            Lookahead(SGD([p], lr=0.1), k=0)

    def test_lr_proxy(self):
        p = Parameter(np.array([1.0]))
        look = Lookahead(SGD([p], lr=0.1))
        assert look.lr == pytest.approx(0.1)
        look.lr = 0.05
        assert look.inner.lr == pytest.approx(0.05)

    def test_converges(self):
        p = Parameter(np.array([4.0]))
        look = Lookahead(Adam([p], lr=0.1), alpha=0.5, k=6)
        for _ in range(300):
            look.zero_grad()
            quadratic_loss(p).backward()
            look.step()
        assert abs(p.data[0]) < 0.05


class TestValidation:
    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        p = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)


class TestZeroGradModes:
    def test_default_mode_drops_grads(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        quadratic_loss(p).backward()
        opt.zero_grad()
        assert p.grad is None

    def test_lookahead_forwards_mode(self):
        p = Parameter(np.array([1.0]))
        look = Lookahead(Adam([p], lr=0.1), alpha=0.5, k=2)
        quadratic_loss(p).backward()
        look.zero_grad()
        assert p.grad is None


class TestGradAccumulation:
    def test_two_sweeps_sum_exactly_without_mutating_handed_out_grads(self):
        """Without zero_grad between them, a second backward() adds onto the
        first sweep's gradients — and never writes into an array the first
        sweep handed out as ``.grad``.

        ``(p + q) * w`` sends one upstream array to both ``p`` and ``q``
        (a takeover alias), ``p`` then accumulates a second term (a buffer
        the first sweep allocated), and the embedding lookup hands ``table``
        a row-sparse gradient.  Dyadic values keep every sum exact, so the
        accumulated gradient must equal twice the first one bit for bit.
        """
        p = Parameter(np.array([1.0, 2.0]))
        q = Parameter(np.array([3.0, 4.0]))
        w = Parameter(np.array([0.5, -1.5]))
        table = Parameter(np.array([[1.0, 0.5], [2.0, -0.25], [0.75, 4.0]]))

        def loss():
            rows = nn.functional.embedding_lookup(table, np.array([0, 2, 0]))
            return ((p + q) * w).sum() + (p * p).sum() + (rows * rows).sum()

        params = {"p": p, "q": q, "w": w, "table": table}
        loss().backward()
        handed_out = {name: t.grad for name, t in params.items()}
        first = {name: grad.copy() for name, grad in handed_out.items()}
        loss().backward()
        for name, t in params.items():
            assert t.grad.tobytes() == (first[name] * 2).tobytes(), name
            assert handed_out[name].tobytes() == first[name].tobytes(), name
