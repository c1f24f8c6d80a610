"""Tests for leader clustering, the baseline of `bench_ablation_clustering`."""

import numpy as np
import pytest

from benchmarks.bench_ablation_clustering import leader_cluster


class TestLeaderCluster:
    def test_validation(self):
        hashes = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError):
            leader_cluster(hashes, eps=-1)
        with pytest.raises(ValueError):
            leader_cluster(hashes, min_cluster_size=0)
        with pytest.raises(ValueError):
            leader_cluster(hashes, counts=np.array([1]))

    def test_empty(self):
        result = leader_cluster(np.empty(0, dtype=np.uint64))
        assert result.n_clusters == 0

    def test_single_group(self):
        hashes = np.array([0b0, 0b1, 0b11], dtype=np.uint64)
        result = leader_cluster(hashes, eps=2)
        assert result.n_clusters == 1
        assert len(set(result.labels.tolist())) == 1
        assert result.core_mask[0]  # first element leads

    def test_two_groups(self):
        hashes = np.array([0, 1, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFE],
                          dtype=np.uint64)
        result = leader_cluster(hashes, eps=4)
        assert result.n_clusters == 2
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]

    def test_order_dependence(self):
        # A chain 0 -- 6 -- 12: order determines whether one or two
        # leaders emerge (the algorithm's documented weakness).
        a = np.array([0b0, 0b111111, 0b111111111111], dtype=np.uint64)
        forward = leader_cluster(a, eps=6)
        backward = leader_cluster(a[::-1].copy(), eps=6)
        assert forward.n_clusters == 2
        assert backward.n_clusters == 2

    def test_min_cluster_size_filters(self):
        hashes = np.array([0] * 6 + [0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        result = leader_cluster(hashes, eps=2, min_cluster_size=5)
        assert result.n_clusters == 1
        assert result.labels[-1] == -1  # singleton demoted to noise
        assert not result.core_mask[-1]

    def test_counts_weight_the_filter(self):
        hashes = np.array([7], dtype=np.uint64)
        unweighted = leader_cluster(hashes, eps=2, min_cluster_size=5)
        assert unweighted.n_clusters == 0
        weighted = leader_cluster(
            hashes, eps=2, min_cluster_size=5, counts=np.array([9])
        )
        assert weighted.n_clusters == 1

    def test_labels_compacted(self):
        rng = np.random.default_rng(0)
        hashes = rng.integers(0, 2**64, size=40, dtype=np.uint64)
        result = leader_cluster(hashes, eps=4, min_cluster_size=2)
        used = sorted(set(result.labels.tolist()) - {-1})
        assert used == list(range(len(used)))

    def test_members_within_eps_of_their_leader(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 2**64, size=5, dtype=np.uint64)
        noisy = []
        for value in base:
            for _ in range(4):
                noisy.append(int(value) ^ int(rng.integers(1, 4)))
        hashes = np.array(list(base) + noisy, dtype=np.uint64)
        result = leader_cluster(hashes, eps=8)
        from repro.utils.bitops import hamming_distance

        leaders = {}
        for position in np.flatnonzero(result.core_mask):
            leaders[result.labels[position]] = int(hashes[position])
        for position in range(len(hashes)):
            label = result.labels[position]
            if label >= 0:
                assert hamming_distance(hashes[position], leaders[label]) <= 8
