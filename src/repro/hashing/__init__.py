"""Perceptual hashing and Hamming-space search.

Implements the paper's Step 1 (pHash extraction) and Step 2 (pairwise
Hamming distance) from scratch:

* :mod:`repro.hashing.dct` — 2-D DCT-II (scipy-backed with a pure-numpy
  reference implementation).
* :mod:`repro.hashing.phash` — the 64-bit DCT perceptual hash, algorithm-
  compatible with the ``imagehash`` library the paper used.
* :mod:`repro.hashing.pairwise` — chunked all-pairs distances, radius
  neighbourhoods (the laptop-scale replacement for the paper's TensorFlow
  multi-GPU engine) and Step 6's nearest-medoid θ-match.
* :mod:`repro.hashing.index` — BK-tree and multi-index hashing for fast
  radius search, used by clustering and association at scale.
"""

from repro.hashing.alternatives import HASHERS, ahash, dhash, whash
from repro.hashing.dct import dct2, dct2_reference
from repro.hashing.index import BKTree, MultiIndexHash
from repro.hashing.pairwise import (
    PairwiseResult,
    nearest_medoid,
    pairwise_distances,
    radius_neighbors,
    unique_hashes,
)
from repro.hashing.phash import PHASH_BITS, phash, phash_batch, phash_to_hex

__all__ = [
    "dct2",
    "ahash",
    "dhash",
    "whash",
    "HASHERS",
    "dct2_reference",
    "phash",
    "phash_batch",
    "phash_to_hex",
    "PHASH_BITS",
    "nearest_medoid",
    "pairwise_distances",
    "radius_neighbors",
    "unique_hashes",
    "PairwiseResult",
    "BKTree",
    "MultiIndexHash",
]
