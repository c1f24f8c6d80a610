"""Tests for the Hawkes simulators (branching and thinning)."""

import numpy as np
import pytest

from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import HawkesModel
from repro.hawkes.simulate import simulate_branching
from tests.hawkes_reference import simulate_thinning


@pytest.fixture()
def model():
    return HawkesModel(
        np.array([0.4, 0.2]),
        np.array([[0.3, 0.1], [0.05, 0.2]]),
        ExponentialKernel(2.0),
    )


class TestBranching:
    def test_validation(self, model, rng):
        with pytest.raises(ValueError):
            simulate_branching(model, 0.0, rng)
        supercritical = HawkesModel(np.array([1.0]), np.array([[1.1]]))
        with pytest.raises(ValueError):
            simulate_branching(supercritical, 10.0, rng)

    def test_structure_consistency(self, model, rng):
        result = simulate_branching(model, 100.0, rng)
        n = len(result.sequence)
        assert result.parents.shape == (n,)
        assert result.roots.shape == (n,)
        for event in range(n):
            parent = result.parents[event]
            if parent == -1:
                # Immigrants root on their own community.
                assert result.roots[event] == result.sequence.processes[event]
            else:
                assert parent < event  # parents precede children
                assert result.sequence.times[parent] <= result.sequence.times[event]
                assert result.roots[event] == result.roots[parent]

    def test_expected_event_count(self, model):
        # E[N] = (I - W^T)^-1 mu T; check over several runs.
        horizon = 300.0
        expected = np.linalg.inv(np.eye(2) - model.weights.T) @ (
            model.background * horizon
        )
        rng = np.random.default_rng(42)
        totals = np.zeros(2)
        n_runs = 30
        for _ in range(n_runs):
            sequence = simulate_branching(model, horizon, rng).sequence
            totals += sequence.counts(2)
        observed = totals / n_runs
        assert np.allclose(observed, expected, rtol=0.12)

    def test_zero_background_no_events(self, rng):
        model = HawkesModel(np.zeros(2), np.full((2, 2), 0.1))
        result = simulate_branching(model, 50.0, rng)
        assert len(result.sequence) == 0

    def test_max_events_guard(self, rng):
        model = HawkesModel(np.array([10.0]), np.array([[0.9]]))
        with pytest.raises(ValueError):
            simulate_branching(model, 1000.0, rng, max_events=100)

    def test_modulation_suppresses_window(self, rng):
        model = HawkesModel(np.array([5.0]), np.zeros((1, 1)))

        def off_first_half(t):
            return np.where(np.asarray(t) < 50.0, 0.0, 1.0)

        result = simulate_branching(
            model, 100.0, rng, background_modulation=off_first_half
        )
        assert np.all(result.sequence.times >= 50.0)
        assert len(result.sequence) > 100  # second half still active

    def test_per_process_modulation(self, rng):
        model = HawkesModel(np.array([5.0, 5.0]), np.zeros((2, 2)))

        def off(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        def on(t):
            return np.ones_like(np.asarray(t, dtype=float))

        result = simulate_branching(
            model, 50.0, rng, background_modulation=[off, on]
        )
        counts = result.sequence.counts(2)
        assert counts[0] == 0 and counts[1] > 100

    def test_modulation_exceeding_max_rejected(self, rng):
        model = HawkesModel(np.array([5.0]), np.zeros((1, 1)))

        def too_big(t):
            return np.full_like(np.asarray(t, dtype=float), 3.0)

        with pytest.raises(ValueError):
            simulate_branching(
                model, 50.0, rng, background_modulation=too_big, modulation_max=1.0
            )


class TestThinning:
    def test_validation(self, model, rng):
        with pytest.raises(ValueError):
            simulate_thinning(model, -1.0, rng)

    def test_agrees_with_branching_in_distribution(self, model):
        # Two independent exact samplers must agree on mean counts.
        horizon = 200.0
        rng = np.random.default_rng(7)
        branching = [
            len(simulate_branching(model, horizon, rng).sequence) for _ in range(20)
        ]
        thinning = [
            len(simulate_thinning(model, horizon, rng)) for _ in range(20)
        ]
        assert np.mean(thinning) == pytest.approx(np.mean(branching), rel=0.15)

    def test_pure_poisson_rate(self, rng):
        model = HawkesModel(np.array([2.0]), np.zeros((1, 1)))
        counts = [len(simulate_thinning(model, 100.0, rng)) for _ in range(20)]
        assert np.mean(counts) == pytest.approx(200.0, rel=0.1)
