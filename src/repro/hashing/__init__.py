"""Perceptual hashing and Hamming-space search.

Implements the paper's Step 1 (pHash extraction) and Step 2 (pairwise
Hamming distance) from scratch:

* :mod:`repro.hashing.dct` — 2-D DCT-II (scipy-backed).
* :mod:`repro.hashing.phash` — the 64-bit DCT perceptual hash, algorithm-
  compatible with the ``imagehash`` library the paper used.
* :mod:`repro.hashing.pairwise` — radius neighbourhoods (the
  laptop-scale replacement for the paper's TensorFlow multi-GPU engine)
  and Step 6's nearest-medoid θ-match.
* :mod:`repro.hashing.index` — the batched radius join and the CSR
  :class:`NeighborGraph` it returns, plus multi-index hashing for
  per-query radius search.
"""

from repro.hashing.dct import dct2
from repro.hashing.index import MultiIndexHash, NeighborGraph
from repro.hashing.pairwise import nearest_medoid, radius_neighbors, unique_hashes
from repro.hashing.phash import PHASH_BITS, phash, phash_to_hex

__all__ = [
    "dct2",
    "phash",
    "phash_to_hex",
    "PHASH_BITS",
    "nearest_medoid",
    "radius_neighbors",
    "unique_hashes",
    "MultiIndexHash",
    "NeighborGraph",
]
