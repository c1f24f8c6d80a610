"""Radius neighbourhoods (Step 2) and the nearest-medoid match (Step 6).

The paper performed all-pairs comparisons of millions of pHashes on a
TensorFlow multi-GPU rig.  This module provides the same contract at
laptop scale: radius neighbourhoods (the only thing DBSCAN actually
needs) from the batched join :func:`repro.hashing.index.radius_join`.
The cold self-join (:func:`radius_neighbors`, sharded across workers when a
:class:`repro.utils.parallel.ParallelConfig` asks for it, with output
identical to the serial computation), the incremental merge
(:func:`merge_radius_neighbors`) and stream ingest all run that one
kernel, and all hand on a :class:`repro.hashing.index.NeighborGraph`.

:func:`nearest_medoid` is Step 6's θ-match: the one kernel behind
batch association and the serving monitor.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.index import NeighborGraph, _dense_pairs, _join_pairs
from repro.utils.bitops import popcount
from repro.utils.parallel import (
    Executor,
    ParallelConfig,
    range_splitter,
    resolve_parallel,
    shard_bounds,
)

__all__ = [
    "delta_pairs",
    "merge_radius_neighbors",
    "nearest_medoid",
    "radius_neighbors",
    "ranked_graph",
    "unique_hashes",
]


# Elements per broadcast popcount matrix (queries x medoids); larger
# inputs are matched in row blocks so peak memory stays bounded.
_MEDOID_PAIR_BUDGET = 1 << 22


def nearest_medoid(
    queries: np.ndarray, medoids: np.ndarray, theta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest medoid within Hamming distance ``theta`` of every query.

    Each block of queries is one broadcast popcount against all
    medoids (the medoid set is small: one entry per annotated cluster).
    ``np.argmin`` returns the *first* minimum, so ties between
    equidistant medoids go to the smallest medoid position.

    Returns
    -------
    (position, distance):
        ``int64`` arrays aligned with ``queries``: the winning medoid's
        position in ``medoids`` and its distance, or ``-1`` in both
        where no medoid lies within ``theta``.
    """
    queries = np.asarray(queries, dtype=np.uint64).reshape(-1)
    medoids = np.asarray(medoids, dtype=np.uint64).reshape(-1)
    position = np.full(queries.size, -1, dtype=np.int64)
    distance = np.full(queries.size, -1, dtype=np.int64)
    if queries.size == 0 or medoids.size == 0:
        return position, distance
    step = max(1, _MEDOID_PAIR_BUDGET // int(medoids.size))
    for lo in range(0, queries.size, step):
        counts = popcount(queries[lo : lo + step, None] ^ medoids)
        best = counts.argmin(axis=1)
        nearest = counts.min(axis=1)
        matched = nearest <= theta
        position[lo : lo + step][matched] = best[matched]
        distance[lo : lo + step][matched] = nearest[matched]
    return position, distance


# Collections up to this many hashes take the blocked dense scan;
# larger ones take the join, which picks its own plan per range.
_DENSE_LIMIT = 2000


def _neighbors_shard(
    hashes: np.ndarray, start: int, stop: int, radius: int, dense: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour rows of the query range ``start:stop`` against all hashes.

    Module-level so process workers can receive pickled shards.
    Returns the rows flat, as ``(row lengths, concatenated rows)``: two
    arrays pickle back from a worker far cheaper than one array per row.
    ``dense`` forces the blocked dense scan; otherwise the join picks
    its plan for the range.
    """
    whole = start == 0 and stop == hashes.size
    queries = hashes if whole else hashes[start:stop]
    if dense:
        row, col = _dense_pairs(queries, hashes, radius)
    else:
        row, col = _join_pairs(queries, hashes, radius, self_join=whole)
    return np.bincount(row, minlength=queries.size), col


def _merge_neighbor_parts(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Reassemble flat query-range outputs in range order."""
    return (
        np.concatenate([lengths for lengths, _ in parts]),
        np.concatenate([col for _, col in parts]),
    )


def radius_neighbors(
    hashes: np.ndarray,
    radius: int,
    *,
    parallel: ParallelConfig | None = None,
) -> NeighborGraph:
    """Neighbour rows within ``radius`` for every hash (self included).

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array.
    radius:
        Maximum Hamming distance (inclusive).
    parallel:
        Optional :class:`repro.utils.parallel.ParallelConfig`.  Queries
        are sharded over contiguous ranges and reassembled in range
        order, identical to the serial path for any worker count and
        backend.

    Up to 2,000 hashes every pair is scanned; above that the self-join
    :func:`repro.hashing.index.radius_join` runs.  Both give the same
    rows.

    Returns
    -------
    NeighborGraph
        Row ``i`` holds the sorted, duplicate-free indices ``j`` with
        ``hamming(hashes[i], hashes[j]) <= radius``; always contains
        ``i``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    if hashes.size == 0:
        return NeighborGraph.from_rows([])
    dense = hashes.size <= _DENSE_LIMIT
    parallel = resolve_parallel(parallel)
    if parallel.is_serial or hashes.size < parallel.workers * 2:
        return NeighborGraph.from_lengths(
            *_neighbors_shard(hashes, 0, int(hashes.size), radius, dense)
        )
    parts = Executor(parallel).supervised_starmap(
        _neighbors_shard,
        [
            (hashes, start, stop, radius, dense)
            for start, stop in shard_bounds(hashes.size, parallel)
        ],
        split=range_splitter(1, 2),
        merge=_merge_neighbor_parts,
    )
    return NeighborGraph.from_lengths(*_merge_neighbor_parts(parts))


def delta_pairs(
    prev_hashes: np.ndarray, new_hashes: np.ndarray, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(row, col)`` pairs that appending ``new_hashes`` adds.

    Positions index ``concat(prev_hashes, new_hashes)``: one join of the
    new hashes against it, plus the transpose of its pairs that reach an
    old hash.  With the pairs over ``prev_hashes`` they are exactly the
    pairs of a cold self-join over the concatenation.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    prev = np.ascontiguousarray(prev_hashes, dtype=np.uint64).reshape(-1)
    new = np.ascontiguousarray(new_hashes, dtype=np.uint64).reshape(-1)
    n_prev = int(prev.size)
    row, col = _join_pairs(new, np.concatenate([prev, new]), int(radius))
    row = row + n_prev
    old = col < n_prev
    return np.concatenate([row, col[old]]), np.concatenate([col, row[old]])


def ranked_graph(
    hashes: np.ndarray, row: np.ndarray, col: np.ndarray
) -> tuple[np.ndarray, NeighborGraph]:
    """``(order, graph)``: ``order`` sorts ``hashes``, and ``graph`` holds
    the ``(row, col)`` pairs over ``hashes`` re-keyed into that order.

    Fed the pairs of a radius self-join over unique hashes, the graph is
    exactly ``radius_neighbors(hashes[order], radius)``.
    """
    order = np.argsort(hashes, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return order, NeighborGraph.from_pairs(rank[row], rank[col], int(order.size))


def merge_radius_neighbors(
    prev_unique: np.ndarray,
    prev_neighbors: NeighborGraph | list[np.ndarray],
    added_unique: np.ndarray,
    radius: int,
) -> tuple[np.ndarray, NeighborGraph]:
    """Neighbour rows over the *sorted union* of two unique hash sets.

    The clustering path works over ``np.unique`` output, where new
    hashes interleave with old ones instead of appending — so the old
    neighbour indices must be remapped through the merged order.  Both
    inputs must be strictly increasing and disjoint (``np.unique``
    output with the overlap removed).  Returns ``(combined, graph)``
    where ``combined`` equals ``np.unique(concat(prev, added))`` and
    ``graph`` is bit-identical to a cold
    ``radius_neighbors(combined, radius)``: the old pairs, the join of
    the added hashes and its transpose, ranked into the merged order
    and sorted once.
    """
    prev = np.ascontiguousarray(prev_unique, dtype=np.uint64).reshape(-1)
    added = np.ascontiguousarray(added_unique, dtype=np.uint64).reshape(-1)
    prev_graph = NeighborGraph.from_rows(prev_neighbors)
    if len(prev_graph) != prev.size:
        raise ValueError(
            f"prev_neighbors has {len(prev_graph)} rows for "
            f"{prev.size} hashes"
        )
    if prev.size > 1 and not np.all(prev[1:] > prev[:-1]):
        raise ValueError("prev_unique must be strictly increasing")
    if added.size > 1 and not np.all(added[1:] > added[:-1]):
        raise ValueError("added_unique must be strictly increasing")
    if added.size and prev.size and np.any(np.isin(added, prev)):
        raise ValueError("added_unique overlaps prev_unique")
    appended = np.concatenate([prev, added])
    row, col = delta_pairs(prev, added, radius)
    order, graph = ranked_graph(
        appended,
        np.concatenate([prev_graph.owners(), row]),
        np.concatenate([prev_graph.indices, col]),
    )
    return appended[order], graph


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
