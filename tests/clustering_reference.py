"""Reference DBSCAN implementations: the oracles for the whole-array path.

Two independent references, both plain Python:

* :func:`bfs_dbscan` — breadth-first expansion over neighbour rows,
  seeded from each unassigned core point in index order.  It is the
  form :func:`repro.clustering.dbscan.dbscan_from_neighbors` took before
  labels became whole-array, kept here verbatim in behaviour.
* :func:`dense_dbscan` — Ester et al. (KDD 1996) over a dense boolean
  adjacency matrix, with no neighbour lists at all.  Seeds are visited
  in index order and a border point keeps the first cluster that
  reaches it, which fixes the same cluster numbering and tie-break.

And the dense forms the blocked kernels replaced:

* :func:`hamming_distance_matrix` — all-pairs distances by chunked
  broadcasting.
* :func:`medoid_index` — one cluster's medoid from its dense distance
  matrix, the per-cluster oracle of
  :func:`repro.clustering.medoid.medoids_by_cluster`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.utils.bitops import popcount

NOISE = -1


def core_mask(neighbors, min_samples, counts=None):
    """``counts``-weighted neighbourhood size of every row >= min_samples."""
    n = len(neighbors)
    counts = np.ones(n, dtype=np.int64) if counts is None else counts
    return np.array(
        [
            sum(int(counts[int(j)]) for j in row) >= min_samples
            for row in neighbors
        ],
        dtype=bool,
    )


def bfs_dbscan(neighbors, min_samples, counts=None):
    """``(labels, core_mask)`` by breadth-first expansion over the rows."""
    n = len(neighbors)
    core = core_mask(neighbors, min_samples, counts)
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != NOISE or not core[seed]:
            continue
        labels[seed] = cluster_id
        queue = deque([seed])
        while queue:
            point = queue.popleft()
            if not core[point]:
                continue
            for neighbor in neighbors[point]:
                neighbor = int(neighbor)
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster_id
                    if core[neighbor]:
                        queue.append(neighbor)
        cluster_id += 1
    return labels, core


def adjacency(hashes, eps):
    """Dense boolean matrix of Hamming distance <= eps (self included)."""
    values = [int(value) for value in hashes]
    return [
        [bin(a ^ b).count("1") <= eps for b in values] for a in values
    ]


def dense_dbscan(adjacent, min_samples, counts=None):
    """``(labels, core_mask)`` of Ester et al.'s DBSCAN on a dense matrix.

    ``adjacent[i][j]`` says ``j`` is in the eps-neighbourhood of ``i``;
    ``counts[j]`` is how many points sit at ``j`` (all of them count
    toward the density of every neighbour of ``j``).
    """
    n = len(adjacent)
    counts = [1] * n if counts is None else [int(c) for c in counts]
    core = [
        sum(counts[j] for j in range(n) if adjacent[i][j]) >= min_samples
        for i in range(n)
    ]
    labels = [NOISE] * n
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != NOISE or not core[seed]:
            continue
        labels[seed] = cluster_id
        frontier = [seed]
        while frontier:
            point = frontier.pop()
            for j in range(n):
                if adjacent[point][j] and labels[j] == NOISE:
                    labels[j] = cluster_id
                    if core[j]:
                        frontier.append(j)
        cluster_id += 1
    return np.array(labels, dtype=np.int64), np.array(core, dtype=bool)


def hamming_distance_matrix(a, b=None, *, chunk_size=4096):
    """``(len(a), len(b))`` int64 Hamming distances, ``a`` vs itself when
    ``b`` is omitted, broadcast ``chunk_size`` rows at a time."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = a if b is None else np.ascontiguousarray(b, dtype=np.uint64)
    out = np.empty((a.size, b.size), dtype=np.int64)
    for start in range(0, a.size, chunk_size):
        out[start : start + chunk_size] = popcount(
            a[start : start + chunk_size, None] ^ b[None, :]
        )
    return out


def medoid_index(hashes, counts=None):
    """Index of the medoid of a set of pHashes.

    Minimises the mean *squared* Hamming distance to all members (the
    paper's definition); ties break to the lowest index.  ``counts``
    weights each hash by its image multiplicity.
    """
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    if hashes.size == 0:
        raise ValueError("cannot take the medoid of an empty cluster")
    if hashes.size == 1:
        return 0
    distances = hamming_distance_matrix(hashes).astype(np.float64)
    if counts is None:
        cost = (distances**2).mean(axis=1)
    else:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (hashes.size,):
            raise ValueError("counts must align with hashes")
        cost = (distances**2) @ counts / counts.sum()
    return int(np.argmin(cost))
