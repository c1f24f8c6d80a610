"""Tests for kernel-rate learning and hash jitter utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hawkes.fit import FitConfig, fit_hawkes_em
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import HawkesModel
from repro.hawkes.simulate import simulate_branching
from repro.utils.bitops import flip_random_bits, hamming_distance


class TestLearnBeta:
    def test_recovers_decay_rate(self):
        truth = HawkesModel(
            np.array([0.4]), np.array([[0.5]]), ExponentialKernel(3.0)
        )
        rng = np.random.default_rng(4)
        sequences = [
            simulate_branching(truth, 400.0, rng).sequence for _ in range(6)
        ]
        config = FitConfig(
            kernel=ExponentialKernel(1.0), learn_beta=True, weight_prior_rate=0.1
        )
        result = fit_hawkes_em(sequences, 1, config)
        assert result.model.kernel.beta == pytest.approx(3.0, rel=0.35)

    def test_beta_stays_in_bounds(self):
        truth = HawkesModel(
            np.array([0.5]), np.array([[0.3]]), ExponentialKernel(2.0)
        )
        rng = np.random.default_rng(5)
        sequence = simulate_branching(truth, 100.0, rng).sequence
        config = FitConfig(learn_beta=True, beta_bounds=(0.5, 1.5))
        result = fit_hawkes_em([sequence], 1, config)
        assert 0.5 <= result.model.kernel.beta <= 1.5

    def test_fixed_beta_by_default(self):
        truth = HawkesModel(
            np.array([0.5]), np.array([[0.3]]), ExponentialKernel(2.0)
        )
        rng = np.random.default_rng(6)
        sequence = simulate_branching(truth, 100.0, rng).sequence
        config = FitConfig(kernel=ExponentialKernel(7.0))
        result = fit_hawkes_em([sequence], 1, config)
        assert result.model.kernel.beta == 7.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FitConfig(beta_bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            FitConfig(beta_bounds=(0.0, 1.0))


class TestFlipRandomBits:
    def test_exact_distance(self, rng):
        value = np.uint64(0x0123456789ABCDEF)
        for n in (0, 1, 5, 64):
            flipped = flip_random_bits(value, n, rng)
            assert hamming_distance(value, flipped) == n

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            flip_random_bits(np.uint64(0), 65, rng)
        with pytest.raises(ValueError):
            flip_random_bits(np.uint64(0), -1, rng)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=64))
    def test_distance_property(self, value, n):
        rng = np.random.default_rng(value % 2**32)
        flipped = flip_random_bits(np.uint64(value), n, rng)
        assert hamming_distance(np.uint64(value), flipped) == n
