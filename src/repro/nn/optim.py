"""Optimisers: SGD, Adam, LAMB, and the Lookahead wrapper.

The paper trains HIRE with a LAMB optimiser (β = (0.9, 0.999), ε = 1e-6)
wrapped in Lookahead (α = 0.5, k = 6) — both are implemented here exactly,
alongside plain SGD and Adam used by the baselines.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "LAMB", "Lookahead"]


class Optimizer:
    """Base optimiser holding a parameter list and a mutable learning rate.

    Moment/velocity state is allocated with ``np.zeros_like`` on each
    parameter, so it follows the parameter dtype — under the float32 policy
    the whole optimiser state is float32.
    """

    def __init__(self, parameters, lr: float):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.parameters:
            p.zero_grad()

    @staticmethod
    def _grad_of(p: Parameter) -> np.ndarray:
        # Guard against mixed-dtype graphs handing a float64 gradient to a
        # float32 parameter: in-place moment updates would raise otherwise.
        grad = p.grad
        if grad.dtype != p.data.dtype:
            grad = grad.astype(p.data.dtype)
        return grad

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, vel in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = self._grad_of(p)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                grad = vel
            p.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, parameters, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = self._grad_of(p)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class LAMB(Optimizer):
    """Layer-wise adaptive moments (You et al., 2019) — the paper's optimiser.

    Performs the Adam update direction, then rescales it per parameter tensor
    by the trust ratio ``||w|| / ||update||`` so that deep attention stacks
    train stably with large batches.
    """

    def __init__(self, parameters, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-6, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = self._grad_of(p)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            weight_norm = np.linalg.norm(p.data)
            update_norm = np.linalg.norm(update)
            if weight_norm > 0 and update_norm > 0:
                trust_ratio = weight_norm / update_norm
            else:
                trust_ratio = 1.0
            p.data -= self.lr * trust_ratio * update


class Lookahead:
    """Lookahead wrapper (Zhang et al., 2019): k fast steps, one slow update.

    Maintains slow weights φ; every ``k`` inner-optimiser steps it moves them
    toward the fast weights θ by ``φ ← φ + α (θ − φ)`` and resets θ to φ.
    """

    def __init__(self, inner: Optimizer, alpha: float = 0.5, k: int = 6):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.inner = inner
        self.alpha = alpha
        self.k = k
        self._counter = 0
        self._slow = [p.data.copy() for p in inner.parameters]

    @property
    def parameters(self):
        return self.inner.parameters

    @property
    def lr(self) -> float:
        return self.inner.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.inner.lr = value

    def zero_grad(self) -> None:
        self.inner.zero_grad()

    def step(self) -> None:
        self.inner.step()
        self._counter += 1
        if self._counter % self.k == 0:
            for slow, p in zip(self._slow, self.inner.parameters):
                slow += self.alpha * (p.data - slow)
                p.data = slow.copy()
