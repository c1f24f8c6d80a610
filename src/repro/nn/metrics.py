"""Binary-classification metrics: the numbers the paper's Appendix C reports.

The screenshot classifier is evaluated with a ROC curve (Fig. 19,
AUC = 0.96) plus accuracy 91.3%, precision 94.3%, recall 93.5% and
F1 93.9%.  These implementations are framework-free and exact.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "confusion_matrix",
    "accuracy",
    "precision_recall_f1",
    "roc_curve",
    "auc",
]


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """2x2 matrix ``[[TN, FP], [FN, TP]]`` for binary labels."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must be aligned")
    matrix = np.zeros((2, 2), dtype=np.int64)
    for t, p in ((0, 0), (0, 1), (1, 0), (1, 1)):
        matrix[t, p] = int(np.sum((y_true == t) & (y_pred == p)))
    return matrix


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    return float(np.mean(y_true == y_pred))


def precision_recall_f1(
    y_true: np.ndarray, y_pred: np.ndarray
) -> tuple[float, float, float]:
    """Precision, recall and F1 of the positive class (label 1)."""
    matrix = confusion_matrix(y_true, y_pred)
    tp = matrix[1, 1]
    fp = matrix[0, 1]
    fn = matrix[1, 0]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return float(precision), float(recall), 0.0
    f1 = 2 * precision * recall / (precision + recall)
    return float(precision), float(recall), float(f1)


def roc_curve(
    y_true: np.ndarray, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC curve from scores of the positive class.

    Returns ``(fpr, tpr, thresholds)`` with points ordered by decreasing
    threshold, starting at (0, 0) and ending at (1, 1).
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise ValueError("y_true and scores must be aligned")
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_true = y_true[order]
    sorted_scores = scores[order]
    tps = np.cumsum(sorted_true == 1)
    fps = np.cumsum(sorted_true == 0)
    # Keep only the last point of each tied-score run.
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0)
    keep = np.concatenate([distinct, [len(sorted_scores) - 1]])
    tpr = np.concatenate([[0.0], tps[keep] / n_pos])
    fpr = np.concatenate([[0.0], fps[keep] / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[keep]])
    return fpr, tpr, thresholds


def auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Area under a curve by the trapezoid rule (expects sorted fpr)."""
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    if fpr.shape != tpr.shape or fpr.size < 2:
        raise ValueError("need at least two aligned curve points")
    if np.any(np.diff(fpr) < 0):
        raise ValueError("fpr must be non-decreasing")
    return float(np.trapezoid(tpr, fpr))
