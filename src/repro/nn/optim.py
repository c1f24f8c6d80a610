"""Optimisers updating ``(param, grad)`` pairs in place."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._t += 1
        for index, (param, grad) in enumerate(zip(params, grads)):
            m = self._m.setdefault(index, np.zeros_like(param))
            v = self._v.setdefault(index, np.zeros_like(param))
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1**self._t)
            v_hat = v / (1 - self.beta2**self._t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
