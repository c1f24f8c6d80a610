"""Tests for the pairwise engine and radius neighbourhoods."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.pairwise import (
    merge_radius_neighbors,
    nearest_medoid,
    pairwise_distances,
    patch_radius_neighbors,
    radius_neighbors,
    unique_hashes,
)
from repro.utils.bitops import hamming_distance
from repro.utils.parallel import ParallelConfig


def clustered_hashes(n_bases: int, members: int, seed: int = 0) -> np.ndarray:
    """Clustered workload: bases with up to 3 low-bit flips per member."""
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 2**64, size=n_bases, dtype=np.uint64)
    out = np.repeat(bases, members)
    flips = rng.integers(0, 4, size=out.size)
    for bit in range(3):
        mask = flips > bit
        out[mask] ^= np.uint64(1) << rng.integers(
            0, 64, size=out.size, dtype=np.uint64
        )[mask].astype(np.uint64)
    return out


class TestPairwiseDistances:
    def test_self_comparison(self):
        hashes = np.array([1, 2, 3], dtype=np.uint64)
        result = pairwise_distances(hashes)
        assert result.distances.shape == (3, 3)
        # Regression: the symmetric self-comparison counts distinct
        # pairs (n choose 2), not the full n*n matrix — the paper's
        # Table-1-style "pairs compared" statistic.
        assert result.n_comparisons == 3
        assert np.all(np.diag(result.distances) == 0)

    def test_self_comparison_pair_count_degenerate_sizes(self):
        assert pairwise_distances(np.array([], dtype=np.uint64)).n_comparisons == 0
        assert pairwise_distances(np.array([7], dtype=np.uint64)).n_comparisons == 0

    def test_cross_comparison(self):
        a = np.array([0], dtype=np.uint64)
        b = np.array([0b111, 0], dtype=np.uint64)
        result = pairwise_distances(a, b)
        assert list(result.distances[0]) == [3, 0]
        assert result.n_comparisons == 2


class TestRadiusNeighbors:
    def test_empty(self):
        assert radius_neighbors(np.empty(0, dtype=np.uint64), 8) == []

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            radius_neighbors(np.array([1], dtype=np.uint64), -1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            radius_neighbors(np.array([1], dtype=np.uint64), 8, method="gpu")

    def test_self_always_included(self):
        hashes = np.array([5, 1000, 2**60], dtype=np.uint64)
        for method in ("brute", "mih"):
            neighbors = radius_neighbors(hashes, 0, method=method)
            for i, row in enumerate(neighbors):
                assert list(row) == [i]

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=12),
    )
    def test_brute_and_mih_agree(self, values, radius):
        hashes = np.array(values, dtype=np.uint64)
        brute = radius_neighbors(hashes, radius, method="brute")
        mih = radius_neighbors(hashes, radius, method="mih")
        for row_b, row_m in zip(brute, mih):
            assert set(row_b.tolist()) == set(row_m.tolist())

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        hashes = rng.integers(0, 2**64, size=60, dtype=np.uint64)
        neighbors = radius_neighbors(hashes, 20, method="brute")
        for i, row in enumerate(neighbors):
            for j in row:
                assert i in set(neighbors[int(j)].tolist())

    def test_matches_scalar_definition(self):
        rng = np.random.default_rng(1)
        hashes = rng.integers(0, 2**64, size=25, dtype=np.uint64)
        neighbors = radius_neighbors(hashes, 30, method="brute")
        for i in range(len(hashes)):
            expected = {
                j
                for j in range(len(hashes))
                if hamming_distance(hashes[i], hashes[j]) <= 30
            }
            assert set(neighbors[i].tolist()) == expected

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=12),
    )
    def test_brute_and_mih_agree_element_for_element(self, values, radius):
        # Regression: MIH used to return unsorted rows with duplicates
        # (one per matching chunk).  The contract is now identical to
        # brute force — sorted, duplicate-free, self included — so the
        # rows must match element for element, not just as sets.
        hashes = np.array(values, dtype=np.uint64)
        brute = radius_neighbors(hashes, radius, method="brute")
        mih = radius_neighbors(hashes, radius, method="mih")
        for i, (row_b, row_m) in enumerate(zip(brute, mih)):
            assert np.array_equal(row_b, row_m)
            assert np.array_equal(row_m, np.unique(row_m))  # sorted, no dups
            assert i in row_m  # self included

    @pytest.mark.parametrize("method", ["brute", "mih"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_matches_serial(self, method, backend):
        hashes = clustered_hashes(40, 5, seed=3)
        serial = radius_neighbors(hashes, 8, method=method)
        parallel = radius_neighbors(
            hashes,
            8,
            method=method,
            parallel=ParallelConfig(workers=4, backend=backend),
        )
        assert len(serial) == len(parallel)
        for row_s, row_p in zip(serial, parallel):
            assert np.array_equal(row_s, row_p)

    def test_auto_switches_to_mih(self):
        rng = np.random.default_rng(2)
        hashes = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        auto = radius_neighbors(hashes, 8, brute_force_limit=10)
        brute = radius_neighbors(hashes, 8, method="brute")
        for row_a, row_b in zip(auto, brute):
            assert set(row_a.tolist()) == set(row_b.tolist())


class TestUniqueHashes:
    def test_dedup_and_counts(self):
        hashes = np.array([5, 3, 5, 5, 3, 9], dtype=np.uint64)
        unique, inverse, counts = unique_hashes(hashes)
        assert list(unique) == [3, 5, 9]
        assert list(counts) == [2, 3, 1]
        assert np.array_equal(unique[inverse], hashes)

    def test_inverse_is_flat_for_multidim_input(self):
        # numpy >= 2.0 shapes np.unique's return_inverse like the input
        # array; unique_hashes must normalise it so downstream fancy
        # indexing (labels[inverse]) stays 1-D on numpy 1.26 and 2.x.
        hashes = np.array([[5, 3], [5, 9]], dtype=np.uint64)
        unique, inverse, counts = unique_hashes(hashes)
        assert inverse.ndim == 1
        assert inverse.shape == (4,)
        assert np.array_equal(unique[inverse], hashes.reshape(-1))


class TestIncrementalNeighbors:
    """patch/merge must be bit-identical to a cold recompute — they are
    the delta path behind incremental clustering."""

    def _cold(self, hashes, radius):
        return radius_neighbors(hashes, radius, method="mih")

    def test_patch_matches_cold_concat(self):
        hashes = clustered_hashes(40, 6, seed=3)
        prev, new = hashes[:180], hashes[180:]
        for radius in (0, 2, 8):
            patched = patch_radius_neighbors(
                prev, self._cold(prev, radius), new, radius
            )
            cold = self._cold(hashes, radius)
            assert len(patched) == len(cold)
            for row_patched, row_cold in zip(patched, cold):
                assert np.array_equal(row_patched, row_cold)

    def test_patch_with_no_new_hashes(self):
        hashes = clustered_hashes(10, 4, seed=4)
        rows = self._cold(hashes, 4)
        patched = patch_radius_neighbors(
            hashes, rows, np.empty(0, dtype=np.uint64), 4
        )
        for row_patched, row_cold in zip(patched, rows):
            assert np.array_equal(row_patched, row_cold)

    def test_patch_empty_delta_on_empty_prev(self):
        patched = patch_radius_neighbors(
            np.empty(0, dtype=np.uint64), [], np.empty(0, dtype=np.uint64), 4
        )
        assert patched == []

    def test_patch_empty_delta_canonicalizes_dtype(self):
        hashes = clustered_hashes(6, 3, seed=8)
        rows = [row.astype(np.int32) for row in self._cold(hashes, 2)]
        patched = patch_radius_neighbors(
            hashes, rows, np.empty(0, dtype=np.uint64), 2
        )
        assert all(row.dtype == np.int64 for row in patched)
        for row_patched, row_cold in zip(patched, self._cold(hashes, 2)):
            assert np.array_equal(row_patched, row_cold)

    def test_patch_with_duplicate_new_hashes(self):
        # The delta repeats prior hashes and has internal duplicates —
        # the shape a streaming batch produces.  Bit-identity to the
        # cold concat must survive it.
        hashes = clustered_hashes(12, 5, seed=7)
        prev = hashes[:30]
        new = np.concatenate([hashes[30:45], hashes[30:40], prev[:5]])
        combined = np.concatenate([prev, new])
        for radius in (0, 4):
            patched = patch_radius_neighbors(
                prev, self._cold(prev, radius), new, radius
            )
            cold = self._cold(combined, radius)
            assert len(patched) == len(cold)
            for row_patched, row_cold in zip(patched, cold):
                assert np.array_equal(row_patched, row_cold)

    def test_patch_validates_row_count(self):
        hashes = clustered_hashes(4, 2, seed=5)
        with pytest.raises(ValueError, match="rows"):
            patch_radius_neighbors(hashes, [], hashes, 2)

    def test_merge_matches_cold_union(self):
        hashes = clustered_hashes(30, 5, seed=6)
        all_unique = np.unique(hashes)
        prev = np.unique(hashes[:100])
        added = np.setdiff1d(all_unique, prev)
        for radius in (2, 8):
            combined, merged = merge_radius_neighbors(
                prev, self._cold(prev, radius), added, radius
            )
            assert np.array_equal(combined, all_unique)
            cold = self._cold(all_unique, radius)
            for row_merged, row_cold in zip(merged, cold):
                assert np.array_equal(row_merged, row_cold)

    def test_merge_validates_ordering_and_overlap(self):
        prev = np.array([5, 3], dtype=np.uint64)  # not increasing
        with pytest.raises(ValueError, match="increasing"):
            merge_radius_neighbors(prev, [np.array([0]), np.array([1])], prev, 2)
        prev = np.array([3, 5], dtype=np.uint64)
        rows = radius_neighbors(prev, 2)
        with pytest.raises(ValueError, match="overlaps"):
            merge_radius_neighbors(
                prev, rows, np.array([5], dtype=np.uint64), 2
            )


def brute_nearest_medoid(queries, medoids, theta):
    """Reference Step-6 match: ``min`` over ``(distance, position)``."""
    positions, distances = [], []
    for query in queries:
        pairs = [
            (bin(int(query) ^ int(medoid)).count("1"), position)
            for position, medoid in enumerate(medoids)
        ]
        within = [pair for pair in pairs if pair[0] <= theta]
        distance, position = min(within) if within else (-1, -1)
        positions.append(position)
        distances.append(distance)
    return positions, distances


def _flip_low_bits(value: int, n_bits: int) -> int:
    return value ^ ((1 << n_bits) - 1)


_MEDOID = 0x0123_4567_89AB_CDEF
_ALL_ONES = 2**64 - 1

# (queries, medoids, theta) — each case aims at one place a fast path
# could diverge from the reference.
NEAREST_MEDOID_CASES = {
    "exactly-theta-and-theta-plus-one": (
        [_flip_low_bits(_MEDOID, 8), _flip_low_bits(_MEDOID, 9), _MEDOID],
        [_MEDOID],
        8,
    ),
    "equidistant-smallest-position-wins": (
        [0, 0b1111, 0b11],
        [0b1100, 0b0011, 0b1100, 0b110000],
        8,
    ),
    "duplicate-queries": (
        [_MEDOID, 7, _MEDOID, 7, _flip_low_bits(_MEDOID, 3)] * 3,
        [_MEDOID, 0],
        8,
    ),
    "extreme-hashes": (
        [0, _ALL_ONES, _flip_low_bits(_ALL_ONES, 8), 0xFF],
        [_ALL_ONES, 0],
        8,
    ),
    "empty-queries": ([], [_MEDOID, 0], 8),
    "empty-medoids": ([_MEDOID, 0, _ALL_ONES], [], 8),
    "single-medoid": ([_MEDOID, _flip_low_bits(_MEDOID, 5), 0], [_MEDOID], 8),
    "theta-zero": ([_MEDOID, _MEDOID ^ 1, 0], [_MEDOID ^ 1, _MEDOID], 0),
    "theta-sixty-four": ([0, _ALL_ONES, _MEDOID], [_ALL_ONES, 0], 64),
    "clustered": (
        clustered_hashes(6, 40, seed=5).tolist(),
        clustered_hashes(6, 1, seed=5).tolist()
        + clustered_hashes(3, 2, seed=6).tolist(),
        8,
    ),
}


def _monitor_over(medoids, theta):
    from repro.annotation.matcher import ClusterAnnotation
    from repro.core.monitor import MemeMonitor
    from repro.core.results import ClusterKey, OccurrenceTable, PipelineResult

    keys = [ClusterKey("pol", position) for position in range(len(medoids))]
    annotations = {
        key: ClusterAnnotation(
            cluster_id=key.cluster_id,
            medoid_hash=np.uint64(medoid),
            matches=(),
            representative=f"meme-{key.cluster_id}",
            meme_names=frozenset(),
            people=frozenset(),
            cultures=frozenset(),
            is_racist=key.cluster_id % 2 == 0,
            is_politics=key.cluster_id % 3 == 0,
        )
        for key, medoid in zip(keys, medoids)
    }
    result = PipelineResult(
        clusterings={},
        annotations=annotations,
        cluster_keys=keys,
        occurrences=OccurrenceTable(
            posts=[],
            cluster_indices=np.empty(0, dtype=np.int64),
            entry_names=[],
            is_racist=np.empty(0, dtype=bool),
            is_politics=np.empty(0, dtype=bool),
        ),
    )
    return MemeMonitor(result, theta=theta), keys


class TestNearestMedoid:
    @pytest.mark.parametrize("case", sorted(NEAREST_MEDOID_CASES))
    def test_every_path_matches_brute_force(self, case):
        from repro.annotation.association import associate_hashes

        queries, medoids, theta = NEAREST_MEDOID_CASES[case]
        expect_position, expect_distance = brute_nearest_medoid(
            queries, medoids, theta
        )
        query_array = np.array(queries, dtype=np.uint64)
        position, distance = nearest_medoid(
            query_array, np.array(medoids, dtype=np.uint64), theta
        )
        assert position.dtype == distance.dtype == np.int64
        assert position.tolist() == expect_position
        assert distance.tolist() == expect_distance

        # Batch association: cluster ids ascend with medoid position.
        association = associate_hashes(
            query_array,
            {10 * p + 3: medoid for p, medoid in enumerate(medoids)},
            theta=theta,
        )
        assert association.cluster_ids.tolist() == [
            -1 if p < 0 else 10 * p + 3 for p in expect_position
        ]
        assert association.distances.tolist() == expect_distance

        # Serving monitor: batch and per-hash verdicts agree with both.
        monitor, keys = _monitor_over(medoids, theta)
        batch = monitor.classify_batch(query_array)
        singles = [monitor.classify_hash(query) for query in queries]
        assert batch == singles
        for verdict, p, d in zip(batch, expect_position, expect_distance):
            assert verdict.matched == (p >= 0)
            assert verdict.cluster == (keys[p] if p >= 0 else None)
            assert verdict.distance == d
