"""Eq. 2 of the paper exactly as printed, the oracle that shows why
:func:`repro.core.metric.perceptual_similarity` uses ``exp(-d / tau)``.

The printed ``1 - d / (tau * e^(max/tau))`` does not reproduce the
values the paper derives from it; ``tests/test_core_metric.py`` checks
that it disagrees with them.
"""

from __future__ import annotations

import numpy as np

from repro.core.metric import MAX_HAMMING


def perceptual_similarity_literal(
    d: np.ndarray | float, tau: float = 25.0
) -> np.ndarray | float:
    """Eq. 2 exactly as printed: ``1 - d / (tau * e^(max/tau))``."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = np.asarray(d, dtype=np.float64)
    out = 1.0 - d / (tau * np.exp(MAX_HAMMING / tau))
    return float(out) if out.ndim == 0 else out
