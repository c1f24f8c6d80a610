"""Tests for the Sequential model and classification metrics."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    ReLU,
    Sequential,
    accuracy,
    auc,
    confusion_matrix,
    precision_recall_f1,
    roc_curve,
)


def xor_data(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    x = rng.random((n, 2))
    y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.5)).astype(np.int64)
    return x, y


class TestSequential:
    def test_needs_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_learns_xor(self, rng):
        x, y = xor_data(400, rng)
        model = Sequential(
            [Dense(2, 16, rng), ReLU(), Dense(16, 16, rng), ReLU(), Dense(16, 2, rng)]
        )
        history = model.fit(x, y, Adam(5e-3), epochs=60, batch_size=32, rng=rng)
        assert history.losses[-1] < history.losses[0]
        assert accuracy(y, model.predict(x)) > 0.9

    def test_predict_proba_rows_sum_to_one(self, rng):
        model = Sequential([Dense(3, 2, rng)])
        probabilities = model.predict_proba(rng.random((7, 3)))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_predict_batching_consistent(self, rng):
        model = Sequential([Dense(3, 2, rng)])
        x = rng.random((50, 3))
        assert np.array_equal(
            model.predict(x, batch_size=7), model.predict(x, batch_size=50)
        )

    def test_fit_validation(self, rng):
        model = Sequential([Dense(2, 2, rng)])
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, 2)), np.zeros(3), Adam())
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 2)), np.zeros(0), Adam())

    def test_history_lengths(self, rng):
        x, y = xor_data(50, rng)
        model = Sequential([Dense(2, 2, rng)])
        history = model.fit(x, y, Adam(), epochs=3, rng=rng)
        assert len(history.losses) == 3
        assert len(history.accuracies) == 3


class TestConfusionAndPRF:
    def test_confusion_matrix(self):
        y_true = np.array([0, 0, 1, 1, 1])
        y_pred = np.array([0, 1, 1, 1, 0])
        matrix = confusion_matrix(y_true, y_pred)
        assert matrix.tolist() == [[1, 1], [1, 2]]

    def test_precision_recall_f1(self):
        y_true = np.array([0, 0, 1, 1, 1])
        y_pred = np.array([0, 1, 1, 1, 0])
        precision, recall, f1 = precision_recall_f1(y_true, y_pred)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_degenerate_no_positives(self):
        precision, recall, f1 = precision_recall_f1(
            np.array([0, 0]), np.array([0, 0])
        )
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestROC:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        fpr, tpr, _ = roc_curve(y, scores)
        assert auc(fpr, tpr) == pytest.approx(1.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        fpr, tpr, _ = roc_curve(y, scores)
        assert auc(fpr, tpr) == pytest.approx(0.5, abs=0.05)

    def test_inverted_scores_zero(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        fpr, tpr, _ = roc_curve(y, scores)
        assert auc(fpr, tpr) == pytest.approx(0.0)

    def test_curve_endpoints(self):
        y = np.array([0, 1, 0, 1])
        scores = np.array([0.3, 0.6, 0.5, 0.9])
        fpr, tpr, _ = roc_curve(y, scores)
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)

    def test_tied_scores_collapse(self):
        y = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        fpr, tpr, thresholds = roc_curve(y, scores)
        assert len(fpr) == 2  # (0,0) and (1,1) only

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([1, 1]), np.array([0.5, 0.6]))

    def test_auc_validation(self):
        with pytest.raises(ValueError):
            auc(np.array([0.5, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            auc(np.array([0.0]), np.array([0.0]))
