"""Chunked pairwise Hamming computation and radius neighbourhoods (Step 2).

The paper performed all-pairs comparisons of millions of pHashes on a
TensorFlow multi-GPU rig.  This module provides the same contract at
laptop scale: chunked numpy broadcasting for dense matrices and
index-accelerated radius neighbourhoods (the only thing DBSCAN actually
needs) via :class:`repro.hashing.index.MultiIndexHash`.  Both paths
shard across workers when a :class:`repro.utils.parallel.ParallelConfig`
asks for it, with output identical to the serial computation.

:func:`nearest_medoid` is Step 6's θ-match: the one kernel behind
batch association and the serving monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.index import MultiIndexHash, mih_neighbors_shard
from repro.utils import compiled
from repro.utils.bitops import hamming_distance_matrix, popcount
from repro.utils.parallel import (
    Executor,
    ParallelConfig,
    kernel_timer,
    range_splitter,
    resolve_parallel,
    shard_bounds,
    strict_supervision,
)
from repro.utils.shm import resolve_array, shared_inputs

__all__ = [
    "PairwiseResult",
    "merge_radius_neighbors",
    "nearest_medoid",
    "pairwise_distances",
    "patch_radius_neighbors",
    "radius_neighbors",
    "unique_hashes",
]


@dataclass(frozen=True)
class PairwiseResult:
    """A dense pairwise-distance computation result.

    Attributes
    ----------
    distances:
        ``(n, m)`` int64 Hamming distance matrix.
    n_comparisons:
        Number of *distinct* hash pairs compared: ``n * (n - 1) // 2``
        for a self-comparison (the matrix is symmetric with a zero
        diagonal, matching the paper's Table-1-style "pairs compared"
        statistic), ``n * m`` for a cross-comparison.
    """

    distances: np.ndarray
    n_comparisons: int


def pairwise_distances(
    a: np.ndarray,
    b: np.ndarray | None = None,
    *,
    chunk_size: int = 4096,
    parallel: ParallelConfig | None = None,
) -> PairwiseResult:
    """Dense all-pairs Hamming distances between hash sets ``a`` and ``b``."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    self_comparison = b is None
    b_arr = a if self_comparison else np.ascontiguousarray(b, dtype=np.uint64)
    matrix = hamming_distance_matrix(
        a, b_arr, chunk_size=chunk_size, parallel=parallel
    )
    n = int(a.size)
    n_comparisons = (
        n * (n - 1) // 2 if self_comparison else n * int(b_arr.size)
    )
    return PairwiseResult(distances=matrix, n_comparisons=n_comparisons)


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
        block = queries[lo : lo + step]
        distances = popcount(block[:, None] ^ medoids[None, :])
        distances[distances > theta] = 65  # > any 64-bit distance
        best = np.argmin(distances, axis=1)
        winners = distances[np.arange(block.size), best]
        matched = np.flatnonzero(winners <= theta)
        position[lo + matched] = best[matched]
        distance[lo + matched] = winners[matched]
    return position, distance


def _brute_neighbors_shard(
    hashes: np.ndarray, start: int, stop: int, radius: int
) -> list[np.ndarray]:
    """Brute-force neighbour lists for the query range ``start:stop``.

    Module-level so process workers can receive pickled shards (or shm
    descriptors, which resolve to read-only views here).
    """
    hashes = resolve_array(hashes, np.uint64)
    matrix = hamming_distance_matrix(
        hashes[start:stop], hashes, parallel=ParallelConfig()
    )
    return [np.flatnonzero(row <= radius) for row in matrix]


def _merge_neighbor_lists(parts: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Reassemble bisected query-range outputs: list concatenation."""
    return [row for part in parts for row in part]


def radius_neighbors(
    hashes: np.ndarray,
    radius: int,
    *,
    method: str = "auto",
    brute_force_limit: int = 2000,
    parallel: ParallelConfig | None = None,
) -> list[np.ndarray]:
    """Neighbour lists within ``radius`` for every hash (self included).

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array.
    radius:
        Maximum Hamming distance (inclusive).
    method:
        ``"brute"`` computes the dense matrix; ``"mih"`` uses multi-index
        hashing; ``"auto"`` picks by collection size.
    brute_force_limit:
        ``auto`` switches to MIH above this many hashes.
    parallel:
        Optional :class:`repro.utils.parallel.ParallelConfig`.  Queries
        are sharded over contiguous ranges and reassembled in range
        order; both methods return results identical to the serial path
        for any worker count and backend.

    Returns
    -------
    list of numpy.ndarray
        ``result[i]`` holds the sorted, duplicate-free indices ``j``
        with ``hamming(hashes[i], hashes[j]) <= radius``; always
        contains ``i``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    if method not in ("auto", "brute", "mih"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "brute" if hashes.size <= brute_force_limit else "mih"
    if hashes.size == 0:
        return []
    kernel = compiled.kernel_variant(f"radius_neighbors_{method}")
    parallel = resolve_parallel(parallel).dispatched(kernel, int(hashes.size))
    if parallel.is_serial or hashes.size < parallel.workers * 2:
        with kernel_timer(parallel, kernel, int(hashes.size), backend="serial"):
            if method == "brute":
                matrix = hamming_distance_matrix(
                    hashes, parallel=ParallelConfig()
                )
                return [np.flatnonzero(row <= radius) for row in matrix]
            # The batched shard kernel over the full range: identical
            # output to per-query MultiIndexHash lookups, several times
            # faster (amortised byte-group gathering + candidate cache).
            return mih_neighbors_shard(hashes, 0, int(hashes.size), radius)
    shard_fn = _brute_neighbors_shard if method == "brute" else mih_neighbors_shard
    with kernel_timer(parallel, kernel, int(hashes.size)):
        # shm transport: the hash corpus is published once and every
        # shard ships a descriptor + query range instead of a pickled
        # copy of the whole array per task.
        with shared_inputs(parallel, hashes) as (hashes_src,):
            sup = Executor(parallel).supervised_starmap(
                shard_fn,
                [
                    (hashes_src, start, stop, radius)
                    for start, stop in shard_bounds(hashes.size, parallel)
                ],
                policy=strict_supervision(parallel),
                split=range_splitter(1, 2),
                merge=_merge_neighbor_lists,
            )
            return [row for shard in sup.results for row in shard]


def patch_radius_neighbors(
    prev_hashes: np.ndarray,
    prev_neighbors: list[np.ndarray],
    new_hashes: np.ndarray,
    radius: int,
) -> list[np.ndarray]:
    """Extend neighbour lists for ``concat(prev_hashes, new_hashes)``.

    Given the neighbour lists previously computed over ``prev_hashes``,
    produces the lists a cold :func:`radius_neighbors` call over the
    concatenated array would return — by indexing only the *new* hashes
    (incremental :meth:`~repro.hashing.index.MultiIndexHash.add`) and
    patching each affected old list in place of an all-pairs recompute.
    Work is O(new · lookup) instead of O(total · lookup): the delta
    path behind incremental clustering.

    Bit-identity: every new hash's row comes from the same MIH query
    the cold path runs; an old row gains exactly the new indices within
    ``radius``, appended in ascending order past ``len(prev_hashes)``,
    so rows stay sorted and duplicate-free.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    prev = np.ascontiguousarray(prev_hashes, dtype=np.uint64).reshape(-1)
    new = np.ascontiguousarray(new_hashes, dtype=np.uint64).reshape(-1)
    if len(prev_neighbors) != prev.size:
        raise ValueError(
            f"prev_neighbors has {len(prev_neighbors)} rows for "
            f"{prev.size} hashes"
        )
    n_prev = int(prev.size)
    if new.size == 0:
        return [np.asarray(row, dtype=np.int64) for row in prev_neighbors]
    index = MultiIndexHash(prev)
    index.add(new)
    additions: dict[int, list[int]] = {}
    new_rows: list[np.ndarray] = []
    for j in range(new.size):
        row = index.query_indices(int(new[j]), radius)
        new_rows.append(row)
        for i in row[row < n_prev].tolist():
            additions.setdefault(i, []).append(n_prev + j)
    patched: list[np.ndarray] = []
    for i in range(n_prev):
        row = np.asarray(prev_neighbors[i], dtype=np.int64)
        extra = additions.get(i)
        if extra:
            row = np.concatenate([row, np.asarray(extra, dtype=np.int64)])
        patched.append(row)
    return patched + new_rows


def merge_radius_neighbors(
    prev_unique: np.ndarray,
    prev_neighbors: list[np.ndarray],
    added_unique: np.ndarray,
    radius: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Neighbour lists over the *sorted union* of two unique hash sets.

    The clustering path works over ``np.unique`` output, where new
    hashes interleave with old ones instead of appending — so the old
    neighbour indices must be remapped through the merged order.  Both
    inputs must be strictly increasing and disjoint (``np.unique``
    output with the overlap removed).  Returns ``(combined, lists)``
    where ``combined`` equals ``np.unique(concat(prev, added))`` and
    ``lists`` is bit-identical to a cold
    ``radius_neighbors(combined, radius)``.
    """
    prev = np.ascontiguousarray(prev_unique, dtype=np.uint64).reshape(-1)
    added = np.ascontiguousarray(added_unique, dtype=np.uint64).reshape(-1)
    if prev.size > 1 and not np.all(prev[1:] > prev[:-1]):
        raise ValueError("prev_unique must be strictly increasing")
    if added.size > 1 and not np.all(added[1:] > added[:-1]):
        raise ValueError("added_unique must be strictly increasing")
    if added.size and prev.size and np.any(np.isin(added, prev)):
        raise ValueError("added_unique overlaps prev_unique")
    appended = patch_radius_neighbors(prev, prev_neighbors, added, radius)
    combined_append = np.concatenate([prev, added])
    order = np.argsort(combined_append, kind="stable").astype(np.int64)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    combined = combined_append[order]
    merged: list[np.ndarray] = [
        np.empty(0, dtype=np.int64) for _ in range(order.size)
    ]
    for append_pos, row in enumerate(appended):
        merged[rank[append_pos]] = np.sort(rank[row])
    return combined, merged


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
