"""Tests for the EM fit: parameter recovery and E-step invariants."""

import numpy as np
import pytest

from repro.hawkes.fit import FitConfig, fit_hawkes_em
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.simulate import simulate_branching
from tests.hawkes_reference import parent_responsibilities


@pytest.fixture(scope="module")
def truth():
    return HawkesModel(
        np.array([0.5, 0.2]),
        np.array([[0.3, 0.2], [0.05, 0.25]]),
        ExponentialKernel(2.0),
    )


@pytest.fixture(scope="module")
def simulated(truth):
    rng = np.random.default_rng(11)
    return [simulate_branching(truth, 250.0, rng).sequence for _ in range(8)]


class TestResponsibilities:
    def test_probabilities_sum_to_one(self, truth, simulated):
        sequence = simulated[0]
        bg, idx, probs = parent_responsibilities(truth, sequence)
        for event in range(len(sequence)):
            total = bg[event] + probs[event].sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_parents_strictly_earlier(self, truth, simulated):
        sequence = simulated[0]
        _, idx, _ = parent_responsibilities(truth, sequence)
        for event in range(len(sequence)):
            for parent in idx[event]:
                assert sequence.times[parent] < sequence.times[event]

    def test_first_event_is_background(self, truth, simulated):
        sequence = simulated[0]
        bg, _, _ = parent_responsibilities(truth, sequence)
        assert bg[0] == pytest.approx(1.0)

    def test_zero_window_means_no_parents(self, truth, simulated):
        sequence = simulated[0]
        bg, idx, probs = parent_responsibilities(truth, sequence, window=0.0)
        assert np.array_equal(bg, np.ones(len(sequence)))
        assert all(i.size == 0 for i in idx) and all(p.size == 0 for p in probs)

    def test_empty_sequence(self, truth):
        empty = EventSequence(np.array([]), np.array([]), horizon=10.0)
        bg, idx, probs = parent_responsibilities(truth, empty)
        assert bg.size == 0 and idx == [] and probs == []


class TestFit:
    def test_validation(self):
        with pytest.raises(ValueError):
            fit_hawkes_em([], 2)
        sequence = EventSequence(np.array([1.0]), np.array([3]), horizon=10.0)
        with pytest.raises(ValueError):
            fit_hawkes_em([sequence], 2)  # process index out of range
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)

    def test_monotone_log_likelihood(self, simulated):
        config = FitConfig(max_iterations=25, tolerance=0.0)
        result = fit_hawkes_em(simulated[:2], 2, config)
        lls = np.array(result.log_likelihoods)
        # EM (with fixed priors) must not decrease the objective; allow
        # tiny float noise.
        assert np.all(np.diff(lls) > -1e-6 * np.abs(lls[:-1]))

    def test_parameter_recovery(self, truth, simulated):
        config = FitConfig(kernel=ExponentialKernel(2.0))
        result = fit_hawkes_em(simulated, 2, config)
        assert result.converged
        model = result.model
        assert np.allclose(model.background, truth.background, atol=0.12)
        assert np.allclose(model.weights, truth.weights, atol=0.12)

    def test_poisson_data_gives_small_weights(self, rng):
        poisson = HawkesModel(np.array([1.0]), np.zeros((1, 1)))
        sequences = [
            simulate_branching(poisson, 200.0, rng).sequence for _ in range(4)
        ]
        result = fit_hawkes_em(sequences, 1)
        assert result.model.weights[0, 0] < 0.08
        assert result.model.background[0] == pytest.approx(1.0, abs=0.15)

    def test_empty_sequences_fit(self):
        empty = EventSequence(np.array([]), np.array([]), horizon=50.0)
        result = fit_hawkes_em([empty], 2)
        assert np.all(result.model.background < 0.05)

    def test_single_event(self):
        sequence = EventSequence(np.array([5.0]), np.array([0]), horizon=50.0)
        result = fit_hawkes_em([sequence], 1)
        assert np.isfinite(result.model.background).all()
        assert np.isfinite(result.model.weights).all()

    def test_warm_start_accepted(self, truth, simulated):
        result = fit_hawkes_em(
            simulated[:1], 2, FitConfig(kernel=ExponentialKernel(2.0)),
            initial_model=truth,
        )
        assert result.n_iterations >= 1
