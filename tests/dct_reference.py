"""Pure-numpy 2-D DCT-II: the executable specification that
:func:`repro.hashing.dct.dct2` (scipy) is checked against."""

from __future__ import annotations

import numpy as np


def dct_matrix(n: int) -> np.ndarray:
    """The orthonormal ``n`` x ``n`` DCT-II matrix ``C``: ``C @ x`` is the
    1-D DCT-II of a length-``n`` signal ``x`` and ``C @ C.T == I``."""
    if n <= 0:
        raise ValueError("n must be positive")
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    matrix = np.cos(np.pi * k * (2 * i + 1) / (2 * n)) * np.sqrt(2.0 / n)
    matrix[0, :] *= 1.0 / np.sqrt(2.0)
    return matrix


def dct2_reference(image: np.ndarray) -> np.ndarray:
    """2-D DCT-II (orthonormal) as two matrix products."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("dct2 expects a 2-D array")
    return dct_matrix(arr.shape[0]) @ arr @ dct_matrix(arr.shape[1]).T
