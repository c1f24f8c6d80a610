"""Leader (threshold) clustering — the streaming baseline to DBSCAN.

The paper notes its "architecture can be easily tweaked to support any
clustering algorithm and distance metric".  This module provides the
classic single-pass alternative: each hash joins the first *leader*
within ``eps``, else becomes a new leader.  It is order-dependent and
has no density requirement — ``bench_ablation_clustering`` measures what
those properties cost relative to DBSCAN (leaders fragment dense
regions and cluster one-off noise), which is the quantified version of
the paper's reasons for choosing a density-based algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.dbscan import DBSCANResult
from repro.utils.bitops import hamming_to_many

__all__ = ["leader_cluster"]


def leader_cluster(
    hashes: np.ndarray,
    *,
    eps: int = 8,
    min_cluster_size: int = 1,
    counts: np.ndarray | None = None,
) -> DBSCANResult:
    """Single-pass leader clustering over 64-bit hashes.

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array, processed in order.
    eps:
        Maximum Hamming distance to a leader (inclusive).
    min_cluster_size:
        Clusters whose total weight falls below this are relabelled as
        noise (-1), mirroring DBSCAN's ``min_samples`` role loosely.
    counts:
        Optional per-hash image multiplicity (weights the size filter).

    Returns
    -------
    DBSCANResult
        Labels (noise = -1) and a core mask marking the leaders.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if min_cluster_size < 1:
        raise ValueError("min_cluster_size must be >= 1")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    n = hashes.size
    if counts is None:
        counts = np.ones(n, dtype=np.int64)
    else:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (n,):
            raise ValueError("counts must align with hashes")
    labels = np.full(n, -1, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return DBSCANResult(labels=labels, core_mask=core_mask)

    leader_hashes: list[int] = []
    leader_positions: list[int] = []
    for position in range(n):
        value = int(hashes[position])
        if leader_hashes:
            distances = hamming_to_many(
                np.uint64(value), np.array(leader_hashes, dtype=np.uint64)
            )
            best = int(np.argmin(distances))
            if distances[best] <= eps:
                labels[position] = best
                continue
        leader_hashes.append(value)
        leader_positions.append(position)
        labels[position] = len(leader_hashes) - 1
        core_mask[position] = True

    # Size filter + label compaction.
    weights = np.zeros(len(leader_hashes), dtype=np.int64)
    for position in range(n):
        weights[labels[position]] += counts[position]
    keep = weights >= min_cluster_size
    remap = np.full(len(leader_hashes), -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    new_labels = np.where(labels >= 0, remap[labels], -1)
    new_core = core_mask.copy()
    for index, position in enumerate(leader_positions):
        if not keep[index]:
            new_core[position] = False
    return DBSCANResult(labels=new_labels, core_mask=new_core)
