"""Tests for BK-tree and multi-index hashing: exactness vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_ablation_index import BKTree
from repro.hashing.index import MultiIndexHash
from repro.utils.bitops import hamming_to_many

hash_lists = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=60
)


def brute_force(hashes: np.ndarray, query: int, radius: int) -> set[int]:
    distances = hamming_to_many(np.uint64(query), hashes)
    return set(np.flatnonzero(distances <= radius).tolist())


class TestBKTree:
    def test_empty_tree(self):
        assert BKTree().query(42, 8) == []
        assert len(BKTree()) == 0

    def test_duplicates_accumulate(self):
        tree = BKTree([7, 7, 7])
        results = tree.query(7, 0)
        assert sorted(i for i, _ in results) == [0, 1, 2]

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            BKTree([1]).query(1, -1)

    @settings(max_examples=40)
    @given(hash_lists, st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=16))
    def test_matches_brute_force(self, values, query, radius):
        hashes = np.array(values, dtype=np.uint64)
        tree = BKTree(values)
        found = {i for i, _ in tree.query(query, radius)}
        assert found == brute_force(hashes, query, radius)

    def test_distances_reported_correctly(self):
        tree = BKTree([0b1111, 0b0000])
        results = dict(tree.query(0b0011, 64))
        assert results[0] == 2 and results[1] == 2


class TestMultiIndexHash:
    def test_empty(self):
        index = MultiIndexHash(np.empty(0, dtype=np.uint64))
        assert index.query(5, 8) == []
        assert len(index) == 0

    def test_negative_radius(self):
        index = MultiIndexHash(np.array([1], dtype=np.uint64))
        with pytest.raises(ValueError):
            index.query(1, -1)

    @settings(max_examples=40)
    @given(hash_lists, st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=16))
    def test_matches_brute_force(self, values, query, radius):
        hashes = np.array(values, dtype=np.uint64)
        index = MultiIndexHash(hashes)
        found = {i for i, _ in index.query(query, radius)}
        assert found == brute_force(hashes, query, radius)

    def test_query_indices_sorted(self):
        hashes = np.array([10, 8, 10, 11], dtype=np.uint64)
        index = MultiIndexHash(hashes)
        assert list(index.query_indices(10, 2)) == [0, 1, 2, 3]

    def test_large_radius_pigeonhole_still_exact(self):
        # radius 23 -> per-chunk distance 2: exercises deeper probing.
        rng = np.random.default_rng(1)
        hashes = rng.integers(0, 2**64, size=200, dtype=np.uint64)
        index = MultiIndexHash(hashes)
        query = int(hashes[0]) ^ 0b111  # distance 3 from hashes[0]
        found = {i for i, _ in index.query(query, 23)}
        assert found == brute_force(hashes, query, 23)


class TestBKTreeIterative:
    """The add/query loops must be iterative: a pathological insertion
    order can chain nodes thousands deep, far past the recursion limit."""

    def test_five_thousand_deep_chain(self, monkeypatch):
        import sys

        import benchmarks.bench_ablation_index as mod

        # Discrete metric: every pair of distinct values is at distance
        # 1, so sequential insertion builds one 5000-node chain.
        monkeypatch.setattr(
            mod, "hamming_distance", lambda a, b: 0 if a == b else 1
        )
        tree = mod.BKTree()
        n = 5000
        assert n > sys.getrecursionlimit()
        for value in range(n):
            tree.add(value, value)
        assert len(tree) == n
        # Exact query walks the whole chain (children at distance 1 stay
        # in range even for radius 0 because d - r <= 1 <= d + r).
        assert (n - 1, 1) in tree.query(0, 1)
        hits = tree.query(123, 0)
        assert (123, 0) in hits

    def test_duplicate_values_share_a_node(self):
        tree = BKTree()
        tree.add(7, 0)
        tree.add(7, 1)
        assert len(tree) == 2
        assert sorted(tree.query(7, 0)) == [(0, 0), (1, 0)]


class TestMultiIndexAdd:
    def test_add_matches_fresh_build(self):
        rng = np.random.default_rng(11)
        hashes = rng.integers(0, 2**64, size=400, dtype=np.uint64)
        fresh = MultiIndexHash(hashes)
        grown = MultiIndexHash(hashes[:300])
        grown.add(hashes[300:])
        assert np.array_equal(fresh.hashes, grown.hashes)
        for query in hashes[::37]:
            for radius in (0, 2, 8):
                assert fresh.query(int(query), radius) == grown.query(
                    int(query), radius
                )

    def test_add_empty_is_noop(self):
        rng = np.random.default_rng(12)
        hashes = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        index = MultiIndexHash(hashes)
        index.add(np.empty(0, dtype=np.uint64))
        assert np.array_equal(index.hashes, hashes)

    def test_add_to_empty_index(self):
        rng = np.random.default_rng(13)
        hashes = rng.integers(0, 2**64, size=80, dtype=np.uint64)
        index = MultiIndexHash(np.empty(0, dtype=np.uint64))
        index.add(hashes)
        fresh = MultiIndexHash(hashes)
        for query in hashes[::11]:
            assert fresh.query(int(query), 4) == index.query(int(query), 4)

    def test_add_empty_to_empty_index_is_noop(self):
        index = MultiIndexHash(np.empty(0, dtype=np.uint64))
        index.add(np.empty(0, dtype=np.uint64))
        assert len(index) == 0
        assert index.query(0, 8) == []

    def test_add_empty_preserves_queries_bit_identically(self):
        rng = np.random.default_rng(15)
        hashes = rng.integers(0, 2**64, size=60, dtype=np.uint64)
        index = MultiIndexHash(hashes)
        before = [index.query_indices(int(q), 8) for q in hashes[::7]]
        index.add(np.empty(0, dtype=np.uint64))
        after = [index.query_indices(int(q), 8) for q in hashes[::7]]
        for row_before, row_after in zip(before, after):
            assert np.array_equal(row_before, row_after)

    def test_add_duplicate_values_matches_fresh_build(self):
        rng = np.random.default_rng(14)
        base = rng.integers(0, 2**64, size=120, dtype=np.uint64)
        # The delta repeats already-indexed hashes *and* contains
        # internal duplicates — the streaming ingester feeds exactly
        # this shape, so the grown index must stay bit-identical to a
        # fresh build over the concatenation.
        delta = np.concatenate([base[::17], base[::17], base[:3]])
        grown = MultiIndexHash(base)
        grown.add(delta)
        fresh = MultiIndexHash(np.concatenate([base, delta]))
        assert np.array_equal(grown.hashes, fresh.hashes)
        for query in np.concatenate([base[::29], delta[:5]]):
            for radius in (0, 4, 8):
                assert np.array_equal(
                    grown.query_indices(int(query), radius),
                    fresh.query_indices(int(query), radius),
                )

    def test_duplicate_values_all_reported_at_distance_zero(self):
        value = np.uint64(0xDEADBEEFCAFEF00D)
        hashes = np.array([value, 1, value, 2, value], dtype=np.uint64)
        index = MultiIndexHash(hashes[:2])
        index.add(hashes[2:])
        hits = index.query(int(value), 0)
        assert sorted(hits) == [(0, 0), (2, 0), (4, 0)]
