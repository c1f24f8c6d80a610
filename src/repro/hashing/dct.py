"""2-D Discrete Cosine Transform (type II) for perceptual hashing.

Delegates to :func:`scipy.fft.dctn`; the test suite checks it against a
pure-numpy matrix form (``tests/dct_reference.py``).
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn

__all__ = ["dct2"]


def dct2(image: np.ndarray) -> np.ndarray:
    """2-D DCT-II (orthonormal), scipy-accelerated."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("dct2 expects a 2-D array")
    return dctn(arr, type=2, norm="ortho")
