"""Whole-array DBSCAN against the two references in clustering_reference.

Every case runs the graph path (:func:`dbscan_from_neighbors` on a
:class:`NeighborGraph`), the same rows as a list of arrays, the
breadth-first reference over those rows and, where the input is a hash
set, Ester et al.'s DBSCAN over the dense distance matrix.  Labels and
core masks must agree exactly, so cluster numbering and the
smallest-cluster-id tie-break for border points are pinned too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import NOISE, dbscan, dbscan_from_neighbors
from repro.hashing.index import NeighborGraph
from repro.hashing.pairwise import radius_neighbors

from tests.clustering_reference import adjacency, bfs_dbscan, dense_dbscan


def assert_matches_references(graph, min_samples, counts=None, hashes=None, eps=None):
    """Graph path == list path == BFS (== dense DBSCAN over ``hashes``)."""
    result = dbscan_from_neighbors(graph, min_samples, counts=counts)
    listed = dbscan_from_neighbors(list(graph), min_samples, counts=counts)
    labels, core = bfs_dbscan(list(graph), min_samples, counts)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.core_mask, core)
    assert np.array_equal(listed.labels, labels)
    assert np.array_equal(listed.core_mask, core)
    if hashes is not None:
        dense_labels, dense_core = dense_dbscan(
            adjacency(hashes, eps), min_samples, counts
        )
        assert np.array_equal(result.labels, dense_labels)
        assert np.array_equal(result.core_mask, dense_core)
    return result


def check_hashes(hashes, eps, min_samples, counts=None):
    hashes = np.asarray(hashes, dtype=np.uint64)
    graph = radius_neighbors(hashes, eps)
    result = assert_matches_references(graph, min_samples, counts, hashes, eps)
    direct = dbscan(hashes, eps=eps, min_samples=min_samples, counts=counts)
    assert np.array_equal(direct.labels, result.labels)
    return result


# Two clusters of four hashes, all within 2 bits inside a cluster and
# 4 bits apart across, and a border point 2 bits from one member of
# each (3 bits or more from the rest), so it has 3 neighbours: border
# at min_samples 4, reachable from both clusters.
CLUSTER_A = [0b0000, 0b0001, 0b0010, 0b0011]
BORDER = 0b1100
CLUSTER_B = [0b00111100, 0b01111100, 0b10111100, 0b11111100]


@pytest.mark.parametrize(
    "layout",
    [
        [BORDER, *CLUSTER_A, *CLUSTER_B],
        [BORDER, *CLUSTER_B, *CLUSTER_A],
        [*CLUSTER_B, BORDER, *CLUSTER_A],
        [*CLUSTER_A, *CLUSTER_B, BORDER],
    ],
)
def test_border_between_two_clusters_takes_smaller_id(layout):
    result = check_hashes(layout, eps=2, min_samples=4)
    border = layout.index(BORDER)
    assert not result.core_mask[border]
    assert result.n_clusters == 2
    assert result.labels[border] == 0


def test_core_only_through_image_counts():
    far = 0xFFFF << 48
    hashes = [0, 0b1, far, far | 0b1, far | 0b11]
    unweighted = check_hashes(hashes, eps=1, min_samples=5)
    assert np.all(unweighted.labels == NOISE)
    # Hash 2 is core through its own four images, hash 3 through its
    # neighbour's; hash 4 (weighted size 2) is a border point of 3.
    counts = np.array([1, 1, 4, 1, 1])
    weighted = check_hashes(hashes, eps=1, min_samples=5, counts=counts)
    assert list(weighted.core_mask) == [False, False, True, True, False]
    assert list(weighted.labels) == [NOISE, NOISE, 0, 0, 0]


def test_min_samples_one_makes_every_point_core():
    rng = np.random.default_rng(3)
    hashes = rng.integers(0, 2**10, size=40, dtype=np.uint64)
    result = check_hashes(hashes, eps=1, min_samples=1)
    assert result.core_mask.all()
    assert NOISE not in result.labels


def test_all_noise():
    hashes = [1 << bit for bit in range(0, 64, 8)]  # pairwise 2 bits
    result = check_hashes(hashes, eps=1, min_samples=2)
    assert np.all(result.labels == NOISE)
    assert not result.core_mask.any()


def test_one_giant_component():
    # A chain 0, 1, 3, 7, ...: neighbours one bit apart, ends 64 apart.
    hashes = [(1 << k) - 1 for k in range(64)] + [2**64 - 1]
    result = check_hashes(hashes, eps=1, min_samples=3)
    assert result.n_clusters == 1
    assert list(result.core_mask) == [False] + [True] * 63 + [False]
    assert np.all(result.labels == 0)


def test_empty_and_singleton():
    empty = dbscan_from_neighbors(NeighborGraph.from_rows([]), 5)
    assert empty.labels.size == 0 and empty.core_mask.size == 0
    assert dbscan_from_neighbors([], 5).labels.size == 0
    alone = check_hashes([7], eps=8, min_samples=1)
    assert list(alone.labels) == [0]
    alone = check_hashes([7], eps=8, min_samples=2)
    assert list(alone.labels) == [NOISE]
    weighted = check_hashes([7], eps=8, min_samples=5, counts=np.array([5]))
    assert list(weighted.labels) == [0]


def test_rows_without_self():
    # Points 0 and 1 list each other but not themselves; 2 lists nothing.
    rows = [np.array([1]), np.array([0]), np.empty(0, dtype=np.int64)]
    graph = NeighborGraph.from_rows(rows)
    result = assert_matches_references(graph, 1)
    assert list(result.core_mask) == [True, True, False]
    assert list(result.labels) == [0, 0, NOISE]
    result = assert_matches_references(graph, 2, counts=np.array([1, 2, 1]))
    assert list(result.core_mask) == [True, False, False]
    assert list(result.labels) == [0, 0, NOISE]


@pytest.mark.parametrize("seed", range(40))
def test_random_hash_sets(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 45))
    bits = int(rng.integers(3, 12))
    hashes = rng.integers(0, 2**bits, size=n, dtype=np.uint64)
    counts = rng.integers(1, 4, size=n) if seed % 2 else None
    check_hashes(
        hashes,
        eps=int(rng.integers(0, 4)),
        min_samples=int(rng.integers(1, 7)),
        counts=counts,
    )


@pytest.mark.parametrize("seed", range(20))
def test_random_symmetric_graphs(seed):
    # Arbitrary symmetric relations, with and without self, duplicates
    # in a row and rows in any order: the list path keeps them as given.
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 30))
    dense = rng.random((n, n)) < rng.uniform(0.02, 0.3)
    dense |= dense.T
    rows = [rng.permutation(np.flatnonzero(line)) for line in dense]
    rows = [
        np.concatenate([row, row[:1]]) if k % 3 == 0 else row
        for k, row in enumerate(rows)
    ]
    counts = rng.integers(1, 3, size=n)
    for min_samples in (1, 2, 3, 5):
        result = dbscan_from_neighbors(rows, min_samples, counts=counts)
        labels, core = bfs_dbscan(rows, min_samples, counts)
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.core_mask, core)


def test_list_and_graph_inputs_agree():
    hashes = np.array(CLUSTER_A + [BORDER] + CLUSTER_B, dtype=np.uint64)
    graph = radius_neighbors(hashes, 2)
    for counts in (None, np.arange(1, hashes.size + 1)):
        a = dbscan_from_neighbors(graph, 4, counts=counts)
        b = dbscan_from_neighbors([np.array(row) for row in graph], 4, counts=counts)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.core_mask, b.core_mask)


def test_asymmetric_list_rejected():
    rows = [np.array([0, 1]), np.array([1]), np.array([2])]
    with pytest.raises(ValueError, match="symmetric"):
        dbscan_from_neighbors(rows, 1)
    # The graph path trusts its producer and does not check.
    dbscan_from_neighbors(NeighborGraph.from_rows(rows), 1)


def test_out_of_range_list_rejected():
    with pytest.raises(ValueError, match="lie in"):
        dbscan_from_neighbors([np.array([0, 1])], 1)
    with pytest.raises(ValueError, match="lie in"):
        dbscan_from_neighbors([np.array([-1])], 1)
