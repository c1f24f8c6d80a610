"""Tests for the power-law kernel and generic-kernel code paths."""

import numpy as np
import pytest

from repro.hawkes import (
    ExponentialKernel,
    HawkesModel,
    fit_hawkes_em,
    simulate_branching,
)
from repro.hawkes.fit import FitConfig
from repro.hawkes.kernels import PowerLawKernel
from tests.hawkes_reference import simulate_thinning


class TestPowerLawKernel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLawKernel(alpha=0.0)
        with pytest.raises(ValueError):
            PowerLawKernel(c=-1.0)

    def test_density_integrates_to_one(self):
        kernel = PowerLawKernel(alpha=1.5, c=0.5)
        grid = np.linspace(0, 2000, 2_000_000)
        mass = np.trapezoid(np.asarray(kernel.density(grid)), grid)
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_integral_is_cdf(self):
        kernel = PowerLawKernel(alpha=2.0, c=1.0)
        assert kernel.integral(0.0) == pytest.approx(0.0)
        assert kernel.integral(1e9) == pytest.approx(1.0, abs=1e-6)
        # CDF at c: 1 - (1/2)^alpha.
        assert kernel.integral(1.0) == pytest.approx(1 - 0.25)

    def test_negative_delay_zero(self):
        kernel = PowerLawKernel()
        assert kernel.density(-0.5) == 0.0
        assert kernel.integral(-0.5) == 0.0

    def test_sampling_matches_cdf(self):
        kernel = PowerLawKernel(alpha=1.5, c=0.5)
        rng = np.random.default_rng(0)
        samples = np.asarray(kernel.sample(rng, size=50_000))
        for q in (0.25, 0.5, 0.9):
            empirical = float(np.mean(samples <= kernel.support_window(q)))
            assert empirical == pytest.approx(q, abs=0.01)

    def test_heavier_tail_than_exponential(self):
        power = PowerLawKernel(alpha=1.5, c=0.5)
        exponential = ExponentialKernel(1.0)
        # Far in the tail the power law dominates.
        assert power.density(20.0) > exponential.density(20.0)

    def test_support_window(self):
        kernel = PowerLawKernel(alpha=1.0, c=1.0)
        assert kernel.integral(kernel.support_window(0.99)) == pytest.approx(0.99)
        with pytest.raises(ValueError):
            kernel.support_window(1.5)


class TestGenericKernelPaths:
    @pytest.fixture(scope="class")
    def simulated(self):
        truth = HawkesModel(
            np.array([0.4]), np.array([[0.4]]), PowerLawKernel(1.5, 0.3)
        )
        rng = np.random.default_rng(9)
        return truth, simulate_branching(truth, 250.0, rng)

    def test_branching_simulation_works(self, simulated):
        truth, simulation = simulated
        assert len(simulation.sequence) > 30
        # Offspring exist and follow the latent structure.
        assert np.any(simulation.parents >= 0)

    def test_thinning_rejects_power_law(self, simulated):
        truth, _ = simulated
        with pytest.raises(TypeError):
            simulate_thinning(truth, 10.0, np.random.default_rng(0))

    def test_generic_log_likelihood_matches_poisson_case(self):
        from repro.hawkes.model import EventSequence

        model = HawkesModel(
            np.array([0.5]), np.zeros((1, 1)), PowerLawKernel()
        )
        sequence = EventSequence(
            np.array([1.0, 4.0]), np.array([0, 0]), horizon=10.0
        )
        expected = 2 * np.log(0.5) - 0.5 * 10.0
        assert model.log_likelihood(sequence) == pytest.approx(expected)

    def test_em_fit_recovers_parameters(self, simulated):
        truth, simulation = simulated
        config = FitConfig(
            kernel=PowerLawKernel(1.5, 0.3), learn_beta=False,
            weight_prior_rate=0.5,
        )
        result = fit_hawkes_em([simulation.sequence], 1, config)
        assert result.model.background[0] == pytest.approx(0.4, abs=0.2)
        assert result.model.weights[0, 0] == pytest.approx(0.4, abs=0.25)

    def test_true_kernel_fits_better_than_wrong_shape(self, simulated):
        truth, simulation = simulated
        right = fit_hawkes_em(
            [simulation.sequence], 1,
            FitConfig(kernel=PowerLawKernel(1.5, 0.3), weight_prior_rate=0.5),
        )
        wrong = fit_hawkes_em(
            [simulation.sequence], 1,
            FitConfig(kernel=ExponentialKernel(8.0), weight_prior_rate=0.5),
        )
        assert right.model.log_likelihood(
            simulation.sequence
        ) > wrong.model.log_likelihood(simulation.sequence)
