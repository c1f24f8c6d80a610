"""A small from-scratch neural-network substrate (numpy only).

The paper's Step 4 trains a Keras/TensorFlow CNN (2 x conv -> maxpool ->
dense(512) -> dropout(0.5) -> softmax(2)) to remove social-network
screenshots from KYM galleries.  Neither framework is available offline,
so this package implements the needed pieces: layers with explicit
forward/backward passes, losses, optimisers, a sequential model with a
training loop, and the evaluation metrics the paper reports (ROC/AUC,
accuracy, precision, recall, F1).
"""

from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import (
    accuracy,
    auc,
    confusion_matrix,
    precision_recall_f1,
    roc_curve,
)
from repro.nn.model import Sequential, TrainHistory
from repro.nn.optim import Adam

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "SoftmaxCrossEntropy",
    "Adam",
    "Sequential",
    "TrainHistory",
    "accuracy",
    "precision_recall_f1",
    "confusion_matrix",
    "roc_curve",
    "auc",
]
