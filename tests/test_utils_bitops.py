"""Tests for bit operations and Hamming kernels, incl. metric axioms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import (
    HASH_BITS,
    hamming_distance,
    hamming_distance_matrix,
    hamming_to_many,
    pack_bits,
    popcount,
    unpack_bits,
)

hash_values = st.integers(min_value=0, max_value=2**64 - 1)


class TestPackUnpack:
    def test_roundtrip_simple(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1  # MSB
        value = pack_bits(bits)
        assert int(value) == 1 << 63
        assert np.array_equal(unpack_bits(value), bits)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.ones(63))

    @given(hash_values)
    def test_roundtrip_property(self, value):
        assert int(pack_bits(unpack_bits(np.uint64(value)))) == value

    def test_hex_alignment_with_paper_example(self):
        # The paper prints hashes as 16 hex digits; MSB-first packing
        # makes format(value, "016x") read the bits left-to-right.
        bits = unpack_bits(np.uint64(0x55352B0B8D8B5B53))
        assert format(int(pack_bits(bits)), "016x") == "55352b0b8d8b5b53"


class TestPopcount:
    def test_scalar(self):
        assert popcount(np.uint64(0)) == 0
        assert popcount(np.uint64(2**64 - 1)) == 64
        assert popcount(np.uint64(0b1011)) == 3

    def test_array(self):
        values = np.array([0, 1, 3, 2**63], dtype=np.uint64)
        assert list(popcount(values)) == [0, 1, 2, 1]

    @given(hash_values)
    def test_matches_python_bitcount(self, value):
        assert popcount(np.uint64(value)) == bin(value).count("1")


class TestHammingDistance:
    def test_paper_cluster_hashes_are_close(self):
        # The three Smug Frog cluster-N hashes from Section 2.2 are
        # mutual near-duplicates (far below the ~32 expected of random
        # 64-bit codes).
        a, b, c = 0x55352B0B8D8B5B53, 0x55952B0BB58B5353, 0x55952B2B9DA58A53
        assert hamming_distance(a, b) <= 12
        assert hamming_distance(b, c) <= 12
        assert hamming_distance(a, c) <= 16

    @given(hash_values, hash_values)
    def test_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(hash_values)
    def test_identity(self, a):
        assert hamming_distance(a, a) == 0

    @given(hash_values, hash_values, hash_values)
    def test_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(
            b, c
        )

    @given(hash_values, hash_values)
    def test_bounded_by_hash_bits(self, a, b):
        assert 0 <= hamming_distance(a, b) <= HASH_BITS


class TestVectorisedKernels:
    @given(st.lists(hash_values, min_size=1, max_size=30), hash_values)
    def test_hamming_to_many_matches_scalar(self, values, query):
        hashes = np.array(values, dtype=np.uint64)
        expected = [hamming_distance(query, v) for v in values]
        assert list(hamming_to_many(np.uint64(query), hashes)) == expected

    @given(
        st.lists(hash_values, min_size=1, max_size=15),
        st.lists(hash_values, min_size=1, max_size=15),
    )
    def test_matrix_matches_scalar(self, a_values, b_values):
        a = np.array(a_values, dtype=np.uint64)
        b = np.array(b_values, dtype=np.uint64)
        matrix = hamming_distance_matrix(a, b)
        for i, av in enumerate(a_values):
            for j, bv in enumerate(b_values):
                assert matrix[i, j] == hamming_distance(av, bv)

    def test_matrix_self_is_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        hashes = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        matrix = hamming_distance_matrix(hashes)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_chunking_is_invisible(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2**64, size=37, dtype=np.uint64)
        b = rng.integers(0, 2**64, size=23, dtype=np.uint64)
        full = hamming_distance_matrix(a, b, chunk_size=1000)
        chunked = hamming_distance_matrix(a, b, chunk_size=5)
        assert np.array_equal(full, chunked)
