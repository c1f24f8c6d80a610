"""Tests for Hawkes kernels, event sequences, and the model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from tests.hawkes_reference import intensity


class TestExponentialKernel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialKernel(0.0)

    def test_density_at_zero(self):
        kernel = ExponentialKernel(2.0)
        assert kernel.density(0.0) == pytest.approx(2.0)

    @pytest.mark.filterwarnings("error")
    def test_negative_delay_zero(self):
        kernel = ExponentialKernel(1.0)
        assert kernel.density(-1.0) == 0.0
        assert kernel.integral(-1.0) == 0.0
        # exp(1000) overflows if evaluated before the mask applies.
        delays = np.array([-1000.0, -1.0, 0.0, 2.0])
        assert np.array_equal(
            kernel.density(delays), [0.0, 0.0, 1.0, np.exp(-2.0)]
        )
        assert np.array_equal(
            kernel.integral(delays), [0.0, 0.0, 0.0, 1.0 - np.exp(-2.0)]
        )

    def test_density_integrates_to_one(self):
        kernel = ExponentialKernel(1.7)
        grid = np.linspace(0, 30, 300_000)
        mass = np.trapezoid(np.asarray(kernel.density(grid)), grid)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_integral_is_cdf(self):
        kernel = ExponentialKernel(0.5)
        assert kernel.integral(0.0) == pytest.approx(0.0)
        assert kernel.integral(np.inf if False else 100.0) == pytest.approx(1.0)

    def test_sample_mean(self):
        kernel = ExponentialKernel(4.0)
        rng = np.random.default_rng(0)
        samples = kernel.sample(rng, size=20000)
        assert np.mean(samples) == pytest.approx(0.25, abs=0.01)

    @given(st.floats(min_value=0.01, max_value=0.999))
    def test_support_window_mass(self, mass):
        kernel = ExponentialKernel(2.0)
        window = kernel.support_window(mass)
        assert kernel.integral(window) == pytest.approx(mass, abs=1e-9)

    def test_support_window_validation(self):
        with pytest.raises(ValueError):
            ExponentialKernel(1.0).support_window(1.0)


class TestEventSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            EventSequence(np.array([2.0, 1.0]), np.array([0, 0]), horizon=5.0)
        with pytest.raises(ValueError):
            EventSequence(np.array([1.0]), np.array([0, 1]), horizon=5.0)
        with pytest.raises(ValueError):
            EventSequence(np.array([6.0]), np.array([0]), horizon=5.0)
        with pytest.raises(ValueError):
            EventSequence(np.array([]), np.array([]), horizon=0.0)

    def test_counts(self):
        sequence = EventSequence(
            np.array([0.5, 1.0, 2.0]), np.array([0, 2, 0]), horizon=5.0
        )
        assert list(sequence.counts(3)) == [2, 0, 1]
        assert len(sequence) == 3


class TestHawkesModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            HawkesModel(np.array([1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            HawkesModel(np.array([-1.0]), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            HawkesModel(np.array([1.0]), np.array([[-0.1]]))

    def test_spectral_radius(self):
        model = HawkesModel(np.array([1.0, 1.0]), np.array([[0.5, 0.0], [0.0, 0.3]]))
        assert model.spectral_radius() == pytest.approx(0.5)

    def test_intensity_at_background_without_events(self):
        model = HawkesModel(np.array([0.7, 0.2]), np.zeros((2, 2)))
        sequence = EventSequence(np.array([]), np.array([]), horizon=10.0)
        assert np.allclose(intensity(model, sequence, 5.0), [0.7, 0.2])

    def test_intensity_jumps_after_event(self):
        kernel = ExponentialKernel(1.0)
        model = HawkesModel(
            np.array([0.1, 0.1]), np.array([[0.0, 0.5], [0.0, 0.0]]), kernel
        )
        sequence = EventSequence(np.array([1.0]), np.array([0]), horizon=10.0)
        lam = intensity(model, sequence, 1.0 + 1e-9)
        assert lam[1] == pytest.approx(0.1 + 0.5 * 1.0, abs=1e-6)
        assert lam[0] == pytest.approx(0.1)

    def test_poisson_log_likelihood_exact(self):
        # With zero weights the model is a Poisson process:
        # ll = n log(mu) - mu T.
        model = HawkesModel(np.array([0.5]), np.zeros((1, 1)))
        sequence = EventSequence(
            np.array([1.0, 2.0, 7.0]), np.array([0, 0, 0]), horizon=10.0
        )
        expected = 3 * np.log(0.5) - 0.5 * 10.0
        assert model.log_likelihood(sequence) == pytest.approx(expected)

    def test_log_likelihood_matches_bruteforce(self):
        # Cross-check the O(nK) recursion against a direct O(n^2) sum.
        rng = np.random.default_rng(0)
        kernel = ExponentialKernel(1.5)
        model = HawkesModel(
            np.array([0.3, 0.2]),
            np.array([[0.2, 0.1], [0.05, 0.25]]),
            kernel,
        )
        times = np.sort(rng.uniform(0, 20, size=30))
        processes = rng.integers(0, 2, size=30)
        sequence = EventSequence(times, processes, horizon=20.0)

        log_term = 0.0
        for n in range(30):
            lam = model.background[processes[n]]
            for m in range(n):
                if times[m] < times[n]:
                    lam += model.weights[processes[m], processes[n]] * float(
                        kernel.density(times[n] - times[m])
                    )
            log_term += np.log(lam)
        compensator = model.background.sum() * 20.0
        compensator += float(
            (
                model.weights[processes].sum(axis=1)
                * np.asarray(kernel.integral(20.0 - times))
            ).sum()
        )
        assert model.log_likelihood(sequence) == pytest.approx(
            log_term - compensator, rel=1e-9
        )

    def test_true_model_beats_wrong_model(self):
        from repro.hawkes.simulate import simulate_branching

        rng = np.random.default_rng(3)
        true = HawkesModel(np.array([0.5]), np.array([[0.5]]), ExponentialKernel(2.0))
        wrong = HawkesModel(np.array([1.0]), np.array([[0.0]]), ExponentialKernel(2.0))
        total_true = 0.0
        total_wrong = 0.0
        for _ in range(5):
            sequence = simulate_branching(true, 100.0, rng).sequence
            total_true += true.log_likelihood(sequence)
            total_wrong += wrong.log_likelihood(sequence)
        assert total_true > total_wrong
