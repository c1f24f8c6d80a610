"""Bit-level operations on 64-bit perceptual hashes.

pHashes are stored as ``numpy.uint64`` scalars/arrays.  Hamming distance is
XOR followed by a population count; the popcount is vectorised through an
8-bit lookup table, which on commodity CPUs is within a small factor of a
native POPCNT loop and needs no compiled extension.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bits",
    "popcount",
    "hamming_distance",
    "hamming_to_many",
    "flip_random_bits",
]

HASH_BITS = 64

# Popcounts of every byte value; uint8 so sums stay compact.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# numpy >= 2.0 exposes the native POPCNT ufunc; the byte-table fallback
# keeps numpy 1.26 working with identical results.
_HAS_NATIVE_POPCOUNT = hasattr(np, "bitwise_count")


def pack_bits(bits: np.ndarray) -> np.uint64:
    """Pack a length-64 0/1 array into one ``uint64`` (bit 0 = MSB).

    The bit order matches the string form used by the paper's pipeline:
    ``format(pack_bits(b), "016x")`` reads the bits left to right.
    """
    bits = np.asarray(bits).ravel()
    if bits.size != HASH_BITS:
        raise ValueError(f"expected {HASH_BITS} bits, got {bits.size}")
    value = 0
    for bit in bits:
        value = (value << 1) | (1 if bit else 0)
    return np.uint64(value)


def popcount(values: np.ndarray | np.uint64 | int) -> np.ndarray | int:
    """Population count of uint64 value(s), vectorised.

    Returns an ``int`` for scalar input, otherwise an ``int64`` array of
    the same shape.
    """
    arr = np.asarray(values, dtype=np.uint64)
    scalar = arr.ndim == 0
    if _HAS_NATIVE_POPCOUNT:
        counts = np.bitwise_count(arr).astype(np.int64)
    else:
        bytes_view = arr.reshape(-1).view(np.uint8).reshape(-1, 8)
        counts = _POPCOUNT8[bytes_view].sum(axis=1).astype(np.int64)
        counts = counts.reshape(arr.shape)
    if scalar:
        return int(counts)
    return counts


def hamming_distance(a: np.uint64 | int, b: np.uint64 | int) -> int:
    """Hamming distance between two 64-bit hashes."""
    return int(popcount(np.uint64(a) ^ np.uint64(b)))


def hamming_to_many(query: np.uint64 | int, hashes: np.ndarray) -> np.ndarray:
    """Hamming distances from ``query`` to every hash in ``hashes``.

    Parameters
    ----------
    query:
        A single 64-bit hash.
    hashes:
        1-D ``uint64`` array.

    Returns
    -------
    numpy.ndarray
        ``int64`` distances, same length as ``hashes``.
    """
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    xored = hashes ^ np.uint64(query)
    return popcount(xored)


def flip_random_bits(
    value: np.uint64 | int,
    n_bits: int,
    rng: np.random.Generator,
) -> np.uint64:
    """Flip ``n_bits`` distinct random bits of a 64-bit hash.

    Models the pHash perturbation a re-encoded (recompressed, resized)
    copy of an image exhibits: the new file hashes a few bits away from
    the original.  The result is at Hamming distance exactly ``n_bits``.
    """
    if not 0 <= n_bits <= HASH_BITS:
        raise ValueError(f"n_bits must be in [0, {HASH_BITS}]")
    result = int(value)
    if n_bits:
        for position in rng.choice(HASH_BITS, size=n_bits, replace=False):
            result ^= 1 << int(position)
    return np.uint64(result)
