"""Radius neighbourhoods (Step 2) and the nearest-medoid match (Step 6).

The paper performed all-pairs comparisons of millions of pHashes on a
TensorFlow multi-GPU rig.  This module provides the same contract at
laptop scale: radius neighbourhoods (the only thing DBSCAN actually
needs) from one :class:`repro.hashing.index.RadiusIndex`, whose ``add``
finds each pair once.  The cold self-join (:func:`radius_neighbors`,
one ``add`` on an empty index) and the incremental merge
(:func:`merge_radius_neighbors`, an ``add`` of the new hashes to the
index over the old, shared by the cache's delta path and the stream's
compaction) both hand on a :class:`repro.hashing.index.NeighborGraph`.

:func:`nearest_medoid` is Step 6's θ-match: the one kernel behind
batch association and the serving monitor.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.index import NeighborGraph, RadiusIndex
from repro.utils.bitops import popcount

__all__ = [
    "merge_radius_neighbors",
    "nearest_medoid",
    "radius_neighbors",
    "unique_hashes",
]


# Elements per broadcast popcount matrix (queries x medoids); larger
# inputs are matched in row blocks, so each block's temporaries (a few
# MB) stay in cache.
_MEDOID_PAIR_BUDGET = 1 << 18


def nearest_medoid(
    queries: np.ndarray,
    medoids: np.ndarray,
    theta: int,
    *,
    return_ties: bool = False,
):
    """Nearest medoid within Hamming distance ``theta`` of every query.

    Each block of queries is one broadcast popcount against all
    medoids (the medoid set is small: one entry per annotated cluster).
    ``np.argmin`` returns the *first* minimum, so ties between
    equidistant medoids go to the smallest medoid position.

    Returns
    -------
    (position, distance) or (position, distance, tied):
        ``int64`` arrays aligned with ``queries``: the winning medoid's
        position in ``medoids`` and its distance, or ``-1`` in both
        where no medoid lies within ``theta``.  With ``return_ties``, a
        ``bool`` array too: whether a second medoid lies at the winning
        distance (never set where nothing matched).
    """
    queries = np.asarray(queries, dtype=np.uint64).reshape(-1)
    medoids = np.asarray(medoids, dtype=np.uint64).reshape(-1)
    position = np.full(queries.size, -1, dtype=np.int64)
    distance = np.full(queries.size, -1, dtype=np.int64)
    tied = np.zeros(queries.size, dtype=bool)
    step = max(1, _MEDOID_PAIR_BUDGET // max(int(medoids.size), 1))
    for lo in range(0, queries.size if medoids.size else 0, step):
        counts = popcount(queries[lo : lo + step, None] ^ medoids)
        best = counts.argmin(axis=1)
        nearest = counts[np.arange(best.size), best]
        matched = nearest <= theta
        position[lo : lo + step][matched] = best[matched]
        distance[lo : lo + step][matched] = nearest[matched]
        if return_ties:
            at_best = counts[matched] == nearest[matched, None]
            tied[lo : lo + step][matched] = at_best.sum(axis=1) > 1
    if return_ties:
        return position, distance, tied
    return position, distance


def radius_neighbors(hashes: np.ndarray, radius: int) -> NeighborGraph:
    """Neighbour rows within ``radius`` for every hash (self included).

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array.
    radius:
        Maximum Hamming distance (inclusive).

    One :meth:`repro.hashing.index.RadiusIndex.add` of every hash on an
    empty index finds each pair once; the pairs, mirrored, and the
    diagonal are sorted once into the graph.

    Returns
    -------
    NeighborGraph
        Row ``i`` holds the sorted, duplicate-free indices ``j`` with
        ``hamming(hashes[i], hashes[j]) <= radius``; always contains
        ``i``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
    a, b = RadiusIndex(radius).add(hashes)
    return NeighborGraph.from_join(a, b, int(hashes.size))


def merge_radius_neighbors(
    prev_unique: np.ndarray,
    prev_graph: NeighborGraph | list[np.ndarray],
    unique: np.ndarray,
    radius: int,
) -> NeighborGraph | None:
    """Grow the radius graph over ``prev_unique`` into the graph over ``unique``.

    Both hash sets are strictly increasing (``np.unique`` output), and
    ``prev_graph`` is the graph over ``prev_unique``.  Equal sets return
    ``prev_graph`` itself.  When ``prev_unique`` is a strict subset, the
    hashes new to ``unique`` go into a
    :class:`~repro.hashing.index.RadiusIndex` built over ``prev_unique``,
    and the pairs its ``add`` returns are inserted into the
    old rows moved to their positions in ``unique``: bit-identical to a
    cold ``radius_neighbors(unique, radius)``.  Any other ``prev_unique``
    returns ``None``, and the caller computes the graph cold.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    prev = np.ascontiguousarray(prev_unique, dtype=np.uint64).reshape(-1)
    unique = np.ascontiguousarray(unique, dtype=np.uint64).reshape(-1)
    prev_graph = NeighborGraph.from_rows(prev_graph)
    if len(prev_graph) != prev.size:
        raise ValueError(
            f"prev_graph has {len(prev_graph)} rows for {prev.size} hashes"
        )
    for name, values in (("prev_unique", prev), ("unique", unique)):
        if values.size > 1 and not np.all(values[1:] > values[:-1]):
            raise ValueError(f"{name} must be strictly increasing")
    if prev.size > unique.size:
        return None
    position = np.searchsorted(unique, prev)
    if not np.array_equal(unique[np.minimum(position, unique.size - 1)], prev):
        return None
    if prev.size == unique.size:
        return prev_graph
    added = np.ones(unique.size, dtype=bool)
    added[position] = False
    added_at = np.flatnonzero(added)
    # The index holds the old hashes, then the added ones.
    where = np.concatenate([position, added_at])
    a, b = RadiusIndex(radius, prev).add(unique[added_at])
    return prev_graph.grown(position, int(unique.size), where[a], where[b], added_at)


def unique_hashes(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate a hash array.

    Mirrors the paper's "unique pHashes" dataset statistic (Table 1):
    identical images (or byte-identical re-uploads) collapse to one hash.

    Returns
    -------
    (unique, inverse, counts):
        ``unique`` sorted unique hashes; ``inverse`` maps each input row
        to its position in ``unique``; ``counts`` is the multiplicity of
        each unique hash.  ``inverse`` is always 1-D: numpy >= 2.0
        changed ``return_inverse`` to follow the input's shape for
        multi-dimensional inputs, so both the input and the inverse are
        explicitly flattened to keep 1.26 and 2.x behaviour identical.
    """
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
    unique, inverse, counts = np.unique(
        hashes, return_inverse=True, return_counts=True
    )
    return unique, inverse.reshape(-1), counts
