"""Tests for image-to-meme association (Step 6)."""

import numpy as np
import pytest

from repro.annotation.association import UNASSIGNED, associate_hashes


class TestAssociateHashes:
    def test_exact_and_near_matches(self):
        medoids = {3: 100, 7: 0xFFFFFFFFFFFFFFFF}
        hashes = np.array([100, 101, 0xFFFFFFFFFFFFFFFF, 0x00FFFF0000FFFF00], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=8)
        assert list(result.cluster_ids) == [3, 3, 7, UNASSIGNED]
        assert list(result.distances) == [0, 1, 0, -1]

    def test_nearest_medoid_wins(self):
        medoids = {0: 0b0, 1: 0b1111}
        hashes = np.array([0b1, 0b1110], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=8)
        assert list(result.cluster_ids) == [0, 1]

    def test_tie_breaks_to_smallest_cluster_id(self):
        medoids = {5: 0b01, 2: 0b10}
        hashes = np.array([0b11], dtype=np.uint64)  # distance 1 to both
        result = associate_hashes(hashes, medoids, theta=8)
        assert result.cluster_ids[0] == 2

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.uint64)
        result = associate_hashes(empty, {0: 5})
        assert result.cluster_ids.size == 0
        result = associate_hashes(np.array([5], dtype=np.uint64), {})
        assert list(result.cluster_ids) == [UNASSIGNED]

    def test_negative_theta(self):
        with pytest.raises(ValueError):
            associate_hashes(np.array([1], dtype=np.uint64), {0: 1}, theta=-1)

    def test_duplicates_memoised_consistently(self):
        medoids = {0: 42}
        hashes = np.array([42] * 100 + [43] * 50, dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=0)
        assert np.all(result.cluster_ids[:100] == 0)
        assert np.all(result.cluster_ids[100:] == UNASSIGNED)

    def test_theta_zero_exact_only(self):
        medoids = {0: 8}
        hashes = np.array([8, 9], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=0)
        assert list(result.cluster_ids) == [0, UNASSIGNED]

    def test_multidim_input_flattened(self):
        # numpy >= 2.0 return_inverse hardening: a 2-D hash array must
        # still produce flat, aligned result columns.
        medoids = {0: 42}
        hashes = np.array([[42, 43], [42, 42]], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=0)
        assert result.cluster_ids.shape == (4,)
        assert list(result.cluster_ids) == [0, UNASSIGNED, 0, 0]
