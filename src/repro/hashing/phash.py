"""The 64-bit DCT perceptual hash (pHash) — the paper's Step 1.

Algorithm (compatible with the ``imagehash`` library the paper used):

1. convert to grayscale and resize to ``hash_size * highfreq_factor``
   (default 32 x 32),
2. take the 2-D DCT-II,
3. keep the top-left ``hash_size`` x ``hash_size`` low-frequency block,
4. threshold each coefficient against the median of the block (the DC term
   is excluded from the median so it cannot dominate), producing 64 bits,
5. pack the bits row-major into one ``uint64``.

Visually similar images differ in few bits; the paper treats Hamming
distance <= 8 as "same meme variant".
"""

from __future__ import annotations

import numpy as np

from repro.hashing.dct import dct2
from repro.images.raster import resize, to_grayscale_array
from repro.utils.bitops import pack_bits

__all__ = ["PHASH_BITS", "phash", "phash_to_hex", "phash_bits"]

PHASH_BITS = 64
_HASH_SIZE = 8
_HIGHFREQ_FACTOR = 4


def phash_bits(image: np.ndarray, *, hash_size: int = _HASH_SIZE) -> np.ndarray:
    """Return the raw bit array (``hash_size**2`` 0/1 values, row-major)."""
    if hash_size < 2:
        raise ValueError("hash_size must be >= 2")
    gray = to_grayscale_array(image)
    side = hash_size * _HIGHFREQ_FACTOR
    small = resize(gray, side, side)
    coefficients = dct2(small)[:hash_size, :hash_size]
    flat = coefficients.ravel()
    median = np.median(flat[1:])  # exclude the DC coefficient
    return (flat > median).astype(np.uint8)


def phash(image: np.ndarray) -> np.uint64:
    """Compute the 64-bit pHash of an image.

    >>> from repro.images import blank
    >>> phash_to_hex(phash(blank(64, fill=0.5)))  # constant: only the DC bit
    '8000000000000000'
    """
    return pack_bits(phash_bits(image))


def phash_to_hex(value: np.uint64 | int) -> str:
    """Format a pHash in the 16-hex-digit form the paper prints.

    >>> phash_to_hex(0x55352B0B8D8B5B53)
    '55352b0b8d8b5b53'
    """
    return format(int(value), "016x")
