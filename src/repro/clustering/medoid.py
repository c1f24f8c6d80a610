"""Cluster medoids — the representative image of each cluster (Step 5).

The paper annotates clusters through their *medoid*: "the element with the
minimum square average distance from all images in the cluster".
"""

from __future__ import annotations

import numpy as np

from repro.clustering.dbscan import NOISE
from repro.utils.bitops import popcount

__all__ = ["medoids_by_cluster", "cluster_members"]


def _grouped(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, starts, members)`` from one stable argsort of the labels:
    cluster ``ids[k]`` is ``members[starts[k] : starts[k + 1]]``, in
    ascending index order, and ``starts`` ends with ``members.size``."""
    labels = np.asarray(labels).reshape(-1)
    order = np.argsort(labels, kind="stable")
    members = order[labels[order] != NOISE]
    ids, starts = np.unique(labels[members], return_index=True)
    return ids, np.append(starts, members.size), members


def cluster_members(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Map each cluster id to the indices of its members (noise excluded)."""
    ids, starts, members = _grouped(labels)
    return dict(zip(ids.tolist(), np.split(members, starts[1:-1])))


# Intra-cluster pairs expanded per block of rows: one giant cluster
# costs its n**2 pairs in time but only this many in memory.
_PAIR_BUDGET = 1 << 18


def medoids_by_cluster(
    hashes: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray | None = None,
) -> dict[int, int]:
    """Medoid (as a global index into ``hashes``) for every cluster.

    Parameters
    ----------
    hashes:
        The full hash array that was clustered.
    labels:
        DBSCAN labels aligned with ``hashes``.
    counts:
        Optional per-hash image multiplicity (image-multiset medoids).

    Every member's integer cost ``sum_j d(i, j)**2 * count_j`` over its
    cluster, in row blocks of about ``2**18`` pairs, then one
    ``lexsort`` on (cluster, cost, index), so ties go to the smallest
    index (the dense per-cluster oracle is ``tests/clustering_reference.py``).
    """
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    if hashes.shape != np.asarray(labels).shape:
        raise ValueError("hashes and labels must be aligned")
    if counts is not None:
        counts = np.asarray(counts)
        if counts.shape != hashes.shape:
            raise ValueError("counts must align with hashes")
    ids, starts, members = _grouped(labels)
    if members.size == 0:
        return {}
    sizes = np.diff(starts)
    cluster = np.repeat(np.arange(ids.size), sizes)
    member_hashes = hashes.reshape(-1)[members]
    weights = (
        np.ones(members.size, dtype=np.int64)
        if counts is None
        else counts.reshape(-1)[members].astype(np.int64)
    )
    # Row r (a member) pairs with every member of its cluster.
    width = sizes[cluster]
    ends = np.cumsum(width)
    cost = np.empty(members.size, dtype=np.int64)
    lo = 0
    while lo < members.size:
        spent = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, spent + _PAIR_BUDGET, "right")))
        block = width[lo:hi]
        first = np.cumsum(block) - block
        rows = np.repeat(np.arange(lo, hi), block)
        partners = np.arange(int(block.sum())) - np.repeat(first, block)
        partners += np.repeat(starts[cluster[lo:hi]], block)
        d = popcount(member_hashes[rows] ^ member_hashes[partners])
        cost[lo:hi] = np.add.reduceat(d * d * weights[partners], first)
        lo = hi
    order = np.lexsort((members, cost, cluster))
    best = order[starts[:-1]]
    return dict(zip(ids.tolist(), members[best].tolist()))
