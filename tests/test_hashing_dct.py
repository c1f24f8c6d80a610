"""Tests for the DCT implementations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.dct import dct2
from tests.dct_reference import dct2_reference, dct_matrix


class TestDctMatrix:
    def test_orthonormal(self):
        for n in (2, 8, 32):
            c = dct_matrix(n)
            assert np.allclose(c @ c.T, np.eye(n), atol=1e-10)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            dct_matrix(0)

    def test_first_row_constant(self):
        c = dct_matrix(8)
        assert np.allclose(c[0], c[0, 0])


class TestDct2:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        image = rng.random((32, 32))
        assert np.allclose(dct2(image), dct2_reference(image), atol=1e-9)

    def test_non_square_matches_reference(self):
        rng = np.random.default_rng(1)
        image = rng.random((16, 24))
        assert np.allclose(dct2(image), dct2_reference(image), atol=1e-9)

    def test_constant_image_is_dc_only(self):
        out = dct2(np.full((8, 8), 0.5))
        dc = out[0, 0]
        assert dc == pytest.approx(0.5 * 8)  # orthonormal scaling
        out[0, 0] = 0.0
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_parseval_energy_preserved(self):
        rng = np.random.default_rng(2)
        image = rng.random((16, 16))
        assert np.sum(image**2) == pytest.approx(np.sum(dct2(image) ** 2))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            dct2(np.zeros(8))
        with pytest.raises(ValueError):
            dct2_reference(np.zeros((2, 2, 2)))

    @given(st.integers(min_value=2, max_value=16))
    def test_linearity(self, n):
        rng = np.random.default_rng(n)
        a = rng.random((n, n))
        b = rng.random((n, n))
        assert np.allclose(dct2(a + b), dct2(a) + dct2(b), atol=1e-9)
