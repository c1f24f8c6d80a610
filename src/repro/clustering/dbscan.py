"""DBSCAN over Hamming neighbourhoods — the paper's Step 3, from scratch.

The paper clusters fringe-community pHashes with DBSCAN at distance
threshold 8 (Appendix A) and min_samples 5 (Section 4.1.1: "there are less
than 5 images with perceptual distance <= 8 from that particular
instance" defines noise).  This implementation follows Ester et al. (KDD
1996): core points have at least ``min_samples`` neighbours (self
included); clusters are the density-connected components of core points
plus their border points; everything else is noise, labelled ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.hashing.index import NeighborGraph
from repro.hashing.pairwise import radius_neighbors

__all__ = ["NOISE", "DBSCANResult", "dbscan", "dbscan_from_neighbors"]

NOISE = -1


@dataclass(frozen=True)
class DBSCANResult:
    """Outcome of a DBSCAN run.

    Attributes
    ----------
    labels:
        ``int64`` array; cluster ids are ``0..n_clusters-1`` in order of
        each cluster's smallest core index, noise is :data:`NOISE` (-1).
    core_mask:
        Boolean array marking core points.
    """

    labels: np.ndarray
    core_mask: np.ndarray

    @property
    def n_clusters(self) -> int:
        """Number of clusters found."""
        return int(self.labels.max() + 1) if self.labels.size else 0

    @property
    def noise_fraction(self) -> float:
        """Fraction of points labelled noise (0 for an empty input)."""
        if self.labels.size == 0:
            return 0.0
        return float(np.mean(self.labels == NOISE))


def dbscan_from_neighbors(
    neighbors: NeighborGraph | list[np.ndarray],
    min_samples: int = 5,
    *,
    counts: np.ndarray | None = None,
) -> DBSCANResult:
    """Run DBSCAN given precomputed radius neighbourhoods.

    Parameters
    ----------
    neighbors:
        Row ``i`` lists the indices within eps of point ``i`` (self
        included): the :class:`repro.hashing.index.NeighborGraph` of
        :func:`repro.hashing.pairwise.radius_neighbors`, or a list of
        index arrays.  A list must be symmetric, as every radius
        neighbourhood is, or ``ValueError`` is raised; a graph is
        trusted.
    min_samples:
        Minimum neighbourhood size (self included) for a core point.
    counts:
        Optional multiplicity per point.  The paper clusters *images*,
        not unique hashes; identical images sit at distance 0 and all
        count toward the density threshold.  Clustering unique hashes
        with their image counts is exactly equivalent and much cheaper.

    Clusters are the components of the core–core edges, numbered by
    their smallest core index; a border point joins the smallest
    cluster among its core neighbours.  That is what Ester et al.'s
    expansion from each unassigned core point in index order yields.
    """
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    graph = NeighborGraph.from_rows(neighbors)
    n = len(graph)
    if counts is None:
        counts = np.ones(n, dtype=np.int64)
    else:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (n,):
            raise ValueError("counts must align with neighbors")
        if np.any(counts < 1):
            raise ValueError("counts must be >= 1")
    row, col = graph.owners(), graph.indices
    if graph is not neighbors:
        _check_symmetric(row, col, n)
    # Weighted neighbourhood sizes from prefix sums over the flat rows
    # (exact in int64, and empty rows need no special case).
    prefix = np.concatenate(([0], np.cumsum(counts[col])))
    sizes = prefix[graph.indptr[1:]] - prefix[graph.indptr[:-1]]
    core_mask = sizes >= min_samples
    # Components over core–core edges.  Filtering keeps the row order,
    # so the kept edges are still CSR; on a symmetric relation the
    # strong components are the undirected ones, and scipy finds them
    # without building the transpose.
    keep = core_mask[row] & core_mask[col]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row[keep], minlength=n))))
    edges = (np.ones(int(keep.sum()), dtype=np.int8), col[keep], indptr)
    _, component = connected_components(
        csr_matrix(edges, shape=(n, n)), connection="strong"
    )
    # Number the components by their smallest core index.
    core = np.flatnonzero(core_mask)
    found, first = np.unique(component[core], return_index=True)
    rank = np.empty(n, dtype=np.int64)
    rank[found[np.argsort(first)]] = np.arange(found.size, dtype=np.int64)
    labels = np.full(n, n, dtype=np.int64)
    labels[core] = rank[component[core]]
    # Border points: the smallest label among their core neighbours.
    border = core_mask[row] & ~core_mask[col]
    np.minimum.at(labels, col[border], labels[row[border]])
    labels[labels == n] = NOISE
    return DBSCANResult(labels=labels, core_mask=core_mask)


def _check_symmetric(row: np.ndarray, col: np.ndarray, n: int) -> None:
    """Raise ``ValueError`` unless the pairs are in range and symmetric."""
    if col.size and (col.min() < 0 or col.max() >= n):
        raise ValueError("neighbour indices must lie in [0, len(neighbors))")
    keys = np.unique(row * n + col)
    transposed = (keys % n) * n + keys // n
    found = np.minimum(np.searchsorted(keys, transposed), keys.size - 1)
    if np.any(keys[found] != transposed):
        raise ValueError("neighbour lists must be symmetric")


def dbscan(
    hashes: np.ndarray,
    *,
    eps: int = 8,
    min_samples: int = 5,
    counts: np.ndarray | None = None,
) -> DBSCANResult:
    """DBSCAN over 64-bit pHashes with the Hamming metric.

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array of (typically unique) pHashes.
    eps:
        Maximum Hamming distance for neighbourhood membership (paper: 8).
    min_samples:
        Core-point threshold, self included (paper: 5).
    counts:
        Optional image multiplicity per hash (see
        :func:`dbscan_from_neighbors`).
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    neighbors = radius_neighbors(hashes, eps)
    return dbscan_from_neighbors(neighbors, min_samples=min_samples, counts=counts)


def dbscan_images(
    image_hashes: np.ndarray,
    *,
    eps: int = 8,
    min_samples: int = 5,
) -> tuple[DBSCANResult, np.ndarray, np.ndarray]:
    """Cluster an image multiset the way the paper does (Step 3).

    Deduplicates ``image_hashes`` (which may contain many identical
    values), clusters the unique hashes with image-count weighting, and
    returns per-image labels as well.

    Returns
    -------
    (result, unique_hashes, image_labels):
        ``result`` is over the unique hashes; ``image_labels`` maps every
        input image to its cluster (or noise).
    """
    image_hashes = np.ascontiguousarray(image_hashes, dtype=np.uint64).reshape(-1)
    unique, inverse, counts = np.unique(
        image_hashes, return_inverse=True, return_counts=True
    )
    # numpy >= 2.0 shapes return_inverse like the input for
    # multi-dimensional arrays; flatten explicitly so image_labels stays
    # 1-D on both numpy 1.26 and 2.x.
    inverse = inverse.reshape(-1)
    result = dbscan(unique, eps=eps, min_samples=min_samples, counts=counts)
    return result, unique, result.labels[inverse]
