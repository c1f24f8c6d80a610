"""Tests for medoid computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import NOISE
from repro.clustering import medoid
from repro.clustering.medoid import cluster_members, medoids_by_cluster
from tests.clustering_reference import hamming_distance_matrix, medoid_index


class TestMedoidIndex:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            medoid_index(np.empty(0, dtype=np.uint64))

    def test_singleton(self):
        assert medoid_index(np.array([9], dtype=np.uint64)) == 0

    def test_central_element_wins(self):
        # 0b000, 0b001, 0b011: the middle value minimises squared distance.
        hashes = np.array([0b000, 0b001, 0b011], dtype=np.uint64)
        assert medoid_index(hashes) == 1

    def test_tie_breaks_to_lowest_index(self):
        hashes = np.array([0, 1, 0, 1], dtype=np.uint64)
        assert medoid_index(hashes) == 0

    def test_counts_shift_medoid(self):
        # Without weights 0b001 is central; weighting the 0b011 copies
        # heavily pulls the medoid toward them.
        hashes = np.array([0b000, 0b001, 0b011], dtype=np.uint64)
        weighted = medoid_index(hashes, counts=np.array([1, 1, 50]))
        assert weighted == 2

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            medoid_index(np.array([1, 2], dtype=np.uint64), counts=np.array([1]))

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20))
    def test_minimises_mean_squared_distance(self, values):
        hashes = np.array(values, dtype=np.uint64)
        chosen = medoid_index(hashes)
        distances = hamming_distance_matrix(hashes).astype(float)
        costs = (distances**2).mean(axis=1)
        assert costs[chosen] == pytest.approx(costs.min())


class TestClusterMembers:
    def test_noise_excluded(self):
        labels = np.array([0, 0, NOISE, 1])
        members = cluster_members(labels)
        assert set(members) == {0, 1}
        assert list(members[0]) == [0, 1]
        assert list(members[1]) == [3]


class TestMedoidsByCluster:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            medoids_by_cluster(np.array([1], dtype=np.uint64), np.array([0, 0]))

    def test_returns_global_indices(self):
        hashes = np.array([0b000, 0b001, 0b011, 2**50], dtype=np.uint64)
        labels = np.array([0, 0, 0, NOISE])
        medoids = medoids_by_cluster(hashes, labels)
        assert medoids == {0: 1}

    def test_counts_forwarded(self):
        hashes = np.array([0b000, 0b001, 0b011], dtype=np.uint64)
        labels = np.array([0, 0, 0])
        medoids = medoids_by_cluster(hashes, labels, counts=np.array([1, 1, 50]))
        assert medoids == {0: 2}


def reference_medoids(hashes, labels, counts=None):
    """One :func:`medoid_index` call per cluster over its members."""
    out = {}
    for cluster_id in np.unique(labels):
        if cluster_id == NOISE:
            continue
        indices = np.flatnonzero(labels == cluster_id)
        member_counts = None if counts is None else counts[indices]
        local = medoid_index(hashes[indices], member_counts)
        out[int(cluster_id)] = int(indices[local])
    return out


class TestWholeArrayMedoidsMatchReference:
    """The grouped, blocked medoid search against per-cluster medoid_index."""

    @pytest.mark.parametrize("budget", [1, 5, 1 << 18])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_labelings(self, seed, budget, monkeypatch):
        monkeypatch.setattr(medoid, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 70))
        # Few distinct bits make many equal costs: the tie-break matters.
        bits = int(rng.choice([2, 4, 16, 63]))
        hashes = rng.integers(0, 2**bits, size=n, dtype=np.uint64)
        labels = rng.integers(-1, int(rng.integers(1, 6)), size=n)
        counts = rng.integers(1, 40, size=n) if seed % 2 else None
        assert medoids_by_cluster(hashes, labels, counts) == reference_medoids(
            hashes, labels, counts
        )

    def test_giant_cluster_in_small_blocks(self, monkeypatch):
        monkeypatch.setattr(medoid, "_PAIR_BUDGET", 64)
        rng = np.random.default_rng(7)
        hashes = rng.integers(0, 2**64, size=300, dtype=np.uint64)
        labels = np.zeros(300, dtype=np.int64)
        labels[::7] = NOISE
        counts = rng.integers(1, 1000, size=300)
        assert medoids_by_cluster(hashes, labels, counts) == reference_medoids(
            hashes, labels, counts
        )

    def test_all_noise_and_empty(self):
        hashes = np.array([1, 2], dtype=np.uint64)
        assert medoids_by_cluster(hashes, np.array([NOISE, NOISE])) == {}
        assert medoids_by_cluster(hashes[:0], np.array([], dtype=np.int64)) == {}

    def test_cluster_members_match_flatnonzero(self):
        labels = np.random.default_rng(2).integers(-1, 9, size=200)
        members = cluster_members(labels)
        assert list(members) == sorted(set(labels.tolist()) - {NOISE})
        for cluster_id, indices in members.items():
            assert np.array_equal(indices, np.flatnonzero(labels == cluster_id))
