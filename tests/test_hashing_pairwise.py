"""Tests for the pairwise engine and radius neighbourhoods."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.models import PostTable
from repro.hashing.index import NeighborGraph, RadiusIndex, _dense_pairs
from repro.hashing.pairwise import (
    merge_radius_neighbors,
    nearest_medoid,
    radius_neighbors,
    unique_hashes,
)
from repro.utils.bitops import hamming_distance
from tests.clustering_reference import adjacency


def reference_rows(hashes, radius):
    """Rows of the dense reference matrix, as sorted index arrays."""
    return [np.flatnonzero(row) for row in adjacency(hashes, radius)]


def dense_graph(hashes, radius):
    """The graph of a forced blocked dense scan, at any collection size."""
    return NeighborGraph.from_pairs(
        *_dense_pairs(hashes, hashes, radius), hashes.size
    )


def join_graph(hashes, radius):
    """The graph of a forced index self-join, at any collection size."""
    return NeighborGraph.from_join(*RadiusIndex(radius).add(hashes), hashes.size)


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


class TestRadiusNeighbors:
    def test_empty(self):
        graph = radius_neighbors(np.empty(0, dtype=np.uint64), 8)
        assert isinstance(graph, NeighborGraph)
        assert len(graph) == 0 and list(graph) == []

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            radius_neighbors(np.array([1], dtype=np.uint64), -1)

    def test_self_always_included(self):
        hashes = np.array([5, 1000, 2**60], dtype=np.uint64)
        for build in (radius_neighbors, dense_graph, join_graph):
            neighbors = build(hashes, 0)
            for i, row in enumerate(neighbors):
                assert list(row) == [i]

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=12),
    )
    def test_brute_and_mih_agree(self, values, radius):
        hashes = np.array(values, dtype=np.uint64)
        expected = reference_rows(hashes, radius)
        for build in (radius_neighbors, dense_graph, join_graph):
            graph = build(hashes, radius)
            assert len(graph) == len(expected)
            for row, ref in zip(graph, expected):
                assert set(row.tolist()) == set(ref.tolist())

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        hashes = rng.integers(0, 2**64, size=60, dtype=np.uint64)
        neighbors = radius_neighbors(hashes, 20)
        for i, row in enumerate(neighbors):
            for j in row:
                assert i in set(neighbors[int(j)].tolist())

    def test_matches_scalar_definition(self):
        rng = np.random.default_rng(1)
        hashes = rng.integers(0, 2**64, size=25, dtype=np.uint64)
        neighbors = radius_neighbors(hashes, 30)
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
        expected = reference_rows(hashes, radius)
        for build in (radius_neighbors, dense_graph, join_graph):
            graph = build(hashes, radius)
            for i, (row, ref) in enumerate(zip(graph, expected)):
                assert np.array_equal(row, ref)
                assert np.array_equal(row, np.unique(row))  # sorted, no dups
                assert i in row  # self included

    def test_auto_switches_to_mih(self):
        # A collection this large plans MIH; its rows must equal a
        # forced dense scan's.
        hashes = clustered_hashes(500, 5, seed=2)
        index = RadiusIndex(8)
        index.add(hashes)
        assert index._plan is not None
        auto = radius_neighbors(hashes, 8)
        dense = dense_graph(hashes, 8)
        assert np.array_equal(auto.indptr, dense.indptr)
        assert np.array_equal(auto.indices, dense.indices)


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
    """:func:`merge_radius_neighbors`, the one incremental path behind the
    runner's cache and stream compaction, must be bit-identical to a
    cold recompute over the grown set."""

    def _cold(self, hashes, radius):
        return radius_neighbors(hashes, radius)

    def _merged(self, prev, hashes, radius):
        """Graph over ``np.unique(hashes)`` grown from ``np.unique(prev)``."""
        prev_unique = np.unique(prev)
        return merge_radius_neighbors(
            prev_unique, self._cold(prev_unique, radius), np.unique(hashes), radius
        )

    def test_patch_matches_cold_concat(self):
        hashes = clustered_hashes(40, 6, seed=3)
        for radius in (0, 2, 8):
            merged = self._merged(hashes[:180], hashes, radius)
            cold = self._cold(np.unique(hashes), radius)
            assert np.array_equal(merged.indptr, cold.indptr)
            assert np.array_equal(merged.indices, cold.indices)

    def test_patch_with_no_new_hashes(self):
        # Posts that only repeat known hashes change the counts, not the
        # unique set: the stored graph comes back as it is.
        hashes = clustered_hashes(10, 4, seed=4)
        unique = np.unique(hashes)
        stored = self._cold(unique, 4)
        repeated = np.unique(np.concatenate([hashes, hashes[:5]]))
        assert merge_radius_neighbors(unique, stored, repeated, 4) is stored

    def test_patch_empty_delta_on_empty_prev(self):
        empty = np.empty(0, dtype=np.uint64)
        merged = merge_radius_neighbors(empty, [], empty, 4)
        assert len(merged) == 0
        hashes = np.unique(clustered_hashes(5, 3, seed=9))
        grown = merge_radius_neighbors(empty, [], hashes, 4)
        cold = self._cold(hashes, 4)
        assert np.array_equal(grown.indptr, cold.indptr)
        assert np.array_equal(grown.indices, cold.indices)

    def test_patch_empty_delta_canonicalizes_dtype(self):
        hashes = clustered_hashes(6, 3, seed=8)
        unique = np.unique(hashes)
        rows = [row.astype(np.int32) for row in self._cold(unique, 2)]
        merged = merge_radius_neighbors(unique, rows, unique, 2)
        assert merged.indices.dtype == merged.indptr.dtype == np.int64
        cold = self._cold(unique, 2)
        assert np.array_equal(merged.indptr, cold.indptr)
        assert np.array_equal(merged.indices, cold.indices)

    def test_patch_with_duplicate_new_hashes(self):
        # The grown multiset repeats prior hashes and has internal
        # duplicates — the shape a stream's posts take.  Bit-identity to
        # the cold graph over its unique set must survive it.
        hashes = clustered_hashes(12, 5, seed=7)
        prev = hashes[:30]
        grown = np.concatenate([prev, hashes[30:45], hashes[30:40], prev[:5]])
        for radius in (0, 4):
            merged = self._merged(prev, grown, radius)
            cold = self._cold(np.unique(grown), radius)
            assert np.array_equal(merged.indptr, cold.indptr)
            assert np.array_equal(merged.indices, cold.indices)

    def test_patch_validates_row_count(self):
        hashes = np.unique(clustered_hashes(4, 2, seed=5))
        with pytest.raises(ValueError, match="rows"):
            merge_radius_neighbors(hashes, [], hashes, 2)

    def test_merge_matches_cold_union(self):
        hashes = clustered_hashes(30, 5, seed=6)
        all_unique = np.unique(hashes)
        for radius in (2, 8):
            merged = self._merged(hashes[:100], hashes, radius)
            cold = self._cold(all_unique, radius)
            assert np.array_equal(merged.indptr, cold.indptr)
            assert np.array_equal(merged.indices, cold.indices)

    def test_merge_non_subset_returns_none(self):
        unique = np.unique(clustered_hashes(8, 4, seed=11))
        stored = self._cold(unique, 8)
        # shrunk, disjoint, and grown but missing one previous hash
        assert merge_radius_neighbors(unique, stored, unique[1:], 8) is None
        assert merge_radius_neighbors(unique, stored, unique + 1, 8) is None
        extra = np.array([0, 2**64 - 1], dtype=np.uint64)
        grown = np.union1d(np.delete(unique, 3), extra)
        assert merge_radius_neighbors(unique, stored, grown, 8) is None

    def test_merge_validates_ordering(self):
        prev = np.array([5, 3], dtype=np.uint64)  # not increasing
        with pytest.raises(ValueError, match="prev_unique must be strictly"):
            merge_radius_neighbors(prev, [np.array([0]), np.array([1])], prev, 2)
        prev = np.array([3, 5], dtype=np.uint64)
        rows = radius_neighbors(prev, 2)
        with pytest.raises(ValueError, match="^unique must be strictly"):
            merge_radius_neighbors(
                prev, rows, np.array([3, 5, 5], dtype=np.uint64), 2
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
            posts=PostTable.empty(),
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

    def test_blocks_match_the_unblocked_kernel(self, monkeypatch):
        import repro.hashing.pairwise as pairwise

        # With two rows per block, queries tied between medoids 1 and 2
        # straddle the block edges 1|2, 5|6 and 9|10; query 7 lies
        # exactly θ from medoid 3, and 11 queries leave a one-row block.
        medoids = np.array([0xFF00, 0b0011, 0b1100, 0xFFFF_0000], dtype=np.uint64)
        queries = np.array(
            [0b0001, 0b0000, 0b1111, 0b0100, 0xFF01, 0b1111_0000, 0b0110,
             0xFFFF_0000 ^ 0xFF, 0xFFFF_FFFF, 0b1001, 0],
            dtype=np.uint64,
        )
        expect = brute_nearest_medoid(queries, medoids, 8)
        monkeypatch.setattr(pairwise, "_MEDOID_PAIR_BUDGET", 1 << 40)
        unblocked = nearest_medoid(queries, medoids, 8, return_ties=True)
        monkeypatch.setattr(pairwise, "_MEDOID_PAIR_BUDGET", 2 * medoids.size)
        blocked = nearest_medoid(queries, medoids, 8, return_ties=True)
        assert unblocked[0].tolist() == expect[0]
        assert unblocked[1].tolist() == expect[1]
        assert np.flatnonzero(unblocked[2]).tolist() == [1, 2, 5, 6, 9, 10]
        assert unblocked[1][7] == 8
        for got, want in zip(blocked, unblocked):
            assert got.tolist() == want.tolist()

    def test_ties_flag_a_second_medoid_at_the_winning_distance(self):
        medoids = np.array([0b01, 0b10, 0b01, 0xFFFF], dtype=np.uint64)
        queries = np.array([0b11, 0b01, 0b10, 0xFFFF, 0xFFFF_0000_0000], dtype=np.uint64)
        position, distance, tied = nearest_medoid(
            queries, medoids, 8, return_ties=True
        )
        assert position.tolist() == [0, 0, 1, 3, -1]
        assert distance.tolist() == [1, 0, 0, 0, -1]
        # 0b11 is 1 from three medoids; 0b01 equals two of them.
        assert tied.tolist() == [True, True, False, False, False]
