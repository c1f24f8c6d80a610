"""Tests for losses and optimisers."""

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.optim import Adam


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        probabilities = softmax(logits)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100))

    def test_extreme_values_stable(self):
        out = softmax(np.array([[1000.0, -1000.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.array([[100.0, 0.0]]), np.array([0]))
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_log_k(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((1, 4)), np.array([2]))
        assert value == pytest.approx(np.log(4))

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        logits = rng.random((5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        loss = SoftmaxCrossEntropy()
        loss.forward(logits, labels)
        analytic = loss.backward()
        epsilon = 1e-6
        numeric = np.zeros_like(logits)
        for index in np.ndindex(*logits.shape):
            logits[index] += epsilon
            plus = SoftmaxCrossEntropy().forward(logits, labels)
            logits[index] -= 2 * epsilon
            minus = SoftmaxCrossEntropy().forward(logits, labels)
            logits[index] += epsilon
            numeric[index] = (plus - minus) / (2 * epsilon)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_validation(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros(3), np.array([0]))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()


def quadratic_minimise(optimizer, steps: int) -> float:
    """Minimise f(x) = ||x - 3||^2 from x=0; returns final distance."""
    x = np.zeros(4)
    for _ in range(steps):
        grad = 2 * (x - 3.0)
        optimizer.step([x], [grad])
    return float(np.abs(x - 3.0).max())


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_minimise(Adam(learning_rate=0.1), 400) < 1e-3

    def test_first_step_size_is_learning_rate(self):
        x = np.array([0.0])
        Adam(learning_rate=0.1).step([x], [np.array([5.0])])
        # Bias correction makes the first step ~= lr regardless of scale.
        assert abs(x[0] + 0.1) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=-1)
