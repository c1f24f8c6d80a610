"""Tests for the from-scratch DBSCAN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import (
    NOISE,
    dbscan,
    dbscan_from_neighbors,
    dbscan_images,
)


def cluster_of_hashes(base: int, n: int) -> list[int]:
    """n hashes within Hamming distance 1 of each other via low bits."""
    return [base ^ (1 << i) for i in range(n)]


class TestDbscanBasics:
    def test_empty_input(self):
        result = dbscan(np.empty(0, dtype=np.uint64))
        assert result.n_clusters == 0
        assert result.noise_fraction == 0.0

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            dbscan(np.array([1], dtype=np.uint64), eps=-1)

    def test_invalid_min_samples(self):
        with pytest.raises(ValueError):
            dbscan_from_neighbors([np.array([0])], min_samples=0)

    def test_single_dense_cluster(self):
        hashes = np.array(cluster_of_hashes(0, 6), dtype=np.uint64)
        result = dbscan(hashes, eps=2, min_samples=5)
        assert result.n_clusters == 1
        assert np.all(result.labels == 0)

    def test_sparse_points_are_noise(self):
        rng = np.random.default_rng(0)
        hashes = rng.integers(0, 2**64, size=20, dtype=np.uint64)
        result = dbscan(hashes, eps=2, min_samples=5)
        assert result.n_clusters == 0
        assert result.noise_fraction == 1.0

    def test_two_separate_clusters(self):
        a = cluster_of_hashes(0, 6)
        b = cluster_of_hashes(0xFFFFFFFFFFFFFFFF, 6)
        hashes = np.array(a + b, dtype=np.uint64)
        result = dbscan(hashes, eps=2, min_samples=5)
        assert result.n_clusters == 2
        assert len(set(result.labels[:6])) == 1
        assert len(set(result.labels[6:])) == 1
        assert result.labels[0] != result.labels[6]

    def test_min_samples_boundary(self):
        hashes = np.array(cluster_of_hashes(0, 4), dtype=np.uint64)
        dense = dbscan(hashes, eps=2, min_samples=4)
        assert dense.n_clusters == 1
        sparse = dbscan(hashes, eps=2, min_samples=5)
        assert sparse.n_clusters == 0

    def test_border_points_join_cluster(self):
        # A chain: core points 0..5 tight; one point at distance eps from
        # the cluster edge with no other neighbours (border, not core).
        core = cluster_of_hashes(0, 6)
        border = 0b11  # distance 2 from several core members
        hashes = np.array(core + [border], dtype=np.uint64)
        result = dbscan(hashes, eps=2, min_samples=6)
        assert result.labels[-1] == result.labels[0]
        assert not result.core_mask[-1] or result.core_mask[0]


class TestWeightedDbscan:
    def test_counts_make_singleton_core(self):
        hashes = np.array([42], dtype=np.uint64)
        unweighted = dbscan(hashes, eps=8, min_samples=5)
        assert unweighted.n_clusters == 0
        weighted = dbscan(hashes, eps=8, min_samples=5, counts=np.array([5]))
        assert weighted.n_clusters == 1

    def test_counts_validation(self):
        hashes = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError):
            dbscan(hashes, counts=np.array([1]))
        with pytest.raises(ValueError):
            dbscan(hashes, counts=np.array([0, 1]))

    def test_equivalence_with_expanded_multiset(self):
        # Weighted clustering of unique hashes == clustering duplicates.
        rng = np.random.default_rng(5)
        base = rng.integers(0, 2**64, size=8, dtype=np.uint64)
        counts = rng.integers(1, 6, size=8)
        expanded = np.repeat(base, counts)
        weighted = dbscan(base, eps=4, min_samples=5, counts=counts)
        _, unique, image_labels = dbscan_images(expanded, eps=4, min_samples=5)
        order = np.argsort(base)
        # Compare noise/cluster membership pattern per unique hash.
        expanded_labels = {int(h): int(l) for h, l in zip(expanded, image_labels)}
        for h, label in zip(base[order], weighted.labels[order]):
            is_noise_a = label == NOISE
            is_noise_b = expanded_labels[int(h)] == NOISE
            assert is_noise_a == is_noise_b


class TestDbscanImages:
    def test_empty(self):
        result, unique, labels = dbscan_images(np.empty(0, dtype=np.uint64))
        assert result.n_clusters == 0 and unique.size == 0 and labels.size == 0

    def test_repeated_image_forms_cluster(self):
        images = np.array([7] * 6 + [2**40], dtype=np.uint64)
        result, unique, labels = dbscan_images(images, eps=0, min_samples=5)
        assert result.n_clusters == 1
        assert list(labels[:6]) == [0] * 6
        assert labels[6] == NOISE

    def test_multidim_input_yields_flat_labels(self):
        # Regression: numpy >= 2.0 shapes np.unique's return_inverse
        # like the input, so a 2-D image array used to produce 2-D
        # image labels downstream.  dbscan_images flattens explicitly.
        images = np.array([[7, 7, 7], [7, 7, 2**40]], dtype=np.uint64)
        result, unique, labels = dbscan_images(images, eps=0, min_samples=5)
        assert labels.ndim == 1
        assert labels.shape == (6,)
        assert list(labels[:5]) == [0] * 5
        assert labels[5] == NOISE


class TestVectorizedCoreMask:
    def test_empty_neighbor_lists(self):
        # The cumsum-based core mask must handle points with empty
        # neighbour rows (np.add.reduceat would mishandle these).
        neighbors = [
            np.array([0, 1], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.empty(0, dtype=np.int64),
        ]
        result = dbscan_from_neighbors(neighbors, min_samples=2)
        assert list(result.core_mask) == [True, True, False]
        assert result.labels[2] == NOISE

    def test_matches_per_point_loop(self):
        rng = np.random.default_rng(11)
        hashes = rng.integers(0, 2**12, size=60, dtype=np.uint64)
        counts = rng.integers(1, 4, size=60)
        from repro.hashing.pairwise import radius_neighbors

        neighbors = radius_neighbors(hashes, 3)
        result = dbscan_from_neighbors(neighbors, min_samples=4, counts=counts)
        expected = np.array(
            [counts[row].sum() >= 4 for row in neighbors], dtype=bool
        )
        assert np.array_equal(result.core_mask, expected)


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_core_points_never_noise_and_density_holds(self, values, eps, min_samples):
        hashes = np.array(values, dtype=np.uint64)
        result = dbscan(hashes, eps=eps, min_samples=min_samples)
        from tests.clustering_reference import hamming_distance_matrix

        distances = hamming_distance_matrix(hashes)
        for i in range(len(values)):
            neighborhood = int(np.sum(distances[i] <= eps))
            assert result.core_mask[i] == (neighborhood >= min_samples)
            if result.core_mask[i]:
                assert result.labels[i] != NOISE
            if result.labels[i] == NOISE:
                assert not result.core_mask[i]

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=2, max_size=40))
    def test_noise_points_far_from_all_cores(self, values):
        hashes = np.array(values, dtype=np.uint64)
        result = dbscan(hashes, eps=2, min_samples=3)
        from tests.clustering_reference import hamming_distance_matrix

        distances = hamming_distance_matrix(hashes)
        for i in np.flatnonzero(result.labels == NOISE):
            for j in np.flatnonzero(result.core_mask):
                assert distances[i, j] > 2
