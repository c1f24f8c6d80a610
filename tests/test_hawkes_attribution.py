"""Tests for root-cause attribution and influence matrices."""

import numpy as np
import pytest

from repro.hawkes.attribution import (
    InfluenceMatrices,
    attribute_root_causes,
    root_cause_influence,
)
from repro.hawkes.fit import FitConfig, fit_hawkes_em
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.simulate import simulate_branching


@pytest.fixture(scope="module")
def truth():
    return HawkesModel(
        np.array([0.6, 0.15, 0.1]),
        np.array(
            [[0.25, 0.20, 0.05], [0.0, 0.15, 0.30], [0.05, 0.0, 0.10]]
        ),
        ExponentialKernel(2.0),
    )


@pytest.fixture(scope="module")
def simulations(truth):
    rng = np.random.default_rng(21)
    return [simulate_branching(truth, 250.0, rng) for _ in range(8)]


class TestAttribution:
    def test_rows_sum_to_one(self, truth, simulations):
        sequence = simulations[0].sequence
        roots = attribute_root_causes(truth, sequence)
        assert roots.shape == (len(sequence), 3)
        assert np.allclose(roots.sum(axis=1), 1.0)

    def test_empty_sequence(self, truth):
        empty = EventSequence(np.array([]), np.array([]), horizon=5.0)
        roots = attribute_root_causes(truth, empty)
        assert roots.shape == (0, 3)

    def test_first_event_attributed_to_own_community(self, truth, simulations):
        sequence = simulations[0].sequence
        roots = attribute_root_causes(truth, sequence)
        assert roots[0, sequence.processes[0]] == pytest.approx(1.0)

    def test_recovers_ground_truth_roots(self, truth, simulations):
        """Attribution under the true model must closely match the
        generator's latent root communities in aggregate."""
        estimated = np.zeros((3, 3))
        actual = np.zeros((3, 3))
        for simulation in simulations:
            sequence = simulation.sequence
            roots = attribute_root_causes(truth, sequence)
            for event in range(len(sequence)):
                destination = sequence.processes[event]
                estimated[:, destination] += roots[event]
                actual[simulation.roots[event], destination] += 1.0
        # Compare as percent-of-destination; every cell within a few points.
        est_pct = 100 * estimated / estimated.sum(axis=0, keepdims=True)
        act_pct = 100 * actual / actual.sum(axis=0, keepdims=True)
        assert np.allclose(est_pct, act_pct, atol=6.0)


class TestInfluenceMatrices:
    def test_zeros(self):
        z = InfluenceMatrices.zeros(3)
        assert z.n_processes == 3
        assert np.all(z.expected_events == 0)

    def test_addition(self):
        a = InfluenceMatrices(np.ones((2, 2)), np.array([1, 2]))
        b = InfluenceMatrices(np.ones((2, 2)), np.array([3, 4]))
        c = a + b
        assert np.all(c.expected_events == 2)
        assert list(c.event_counts) == [4, 6]
        with pytest.raises(ValueError):
            a + InfluenceMatrices.zeros(3)

    def test_percent_of_destination_columns(self):
        m = InfluenceMatrices(
            np.array([[8.0, 1.0], [2.0, 9.0]]), np.array([10, 10])
        )
        pct = m.percent_of_destination()
        assert np.allclose(pct.sum(axis=0), 100.0)

    def test_normalized_by_source(self):
        m = InfluenceMatrices(
            np.array([[5.0, 5.0], [0.0, 10.0]]), np.array([10, 10])
        )
        normalized = m.normalized_by_source()
        assert normalized[0, 0] == pytest.approx(50.0)
        assert normalized[0, 1] == pytest.approx(50.0)

    def test_external_influence_excludes_diagonal(self):
        m = InfluenceMatrices(
            np.array([[5.0, 3.0], [1.0, 9.0]]), np.array([10, 10])
        )
        assert list(m.external_influence()) == [3.0, 1.0]
        assert m.total_external_normalized()[0] == pytest.approx(30.0)


class TestRootCauseInfluence:
    def test_no_sequences(self):
        assert root_cause_influence([], np.zeros((0, 3)), 3) == []

    def test_pooled_attribution_conserved(self, simulations):
        sequences = [s.sequence for s in simulations[:3]]
        fit = fit_hawkes_em(
            sequences, 3, FitConfig(kernel=ExponentialKernel(2.0)), pooled=True
        )
        roots = attribute_root_causes(fit.model, sequences)
        assert roots.shape == (sum(len(s) for s in sequences), 3)
        per_sequence = root_cause_influence(sequences, roots, 3)
        assert len(per_sequence) == 3
        result = sum(per_sequence, InfluenceMatrices.zeros(3))
        # Every event's root mass lands somewhere: column sums == counts.
        assert np.allclose(
            result.expected_events.sum(axis=0), result.event_counts
        )
        for sequence, matrices in zip(sequences, per_sequence):
            assert np.array_equal(matrices.event_counts, sequence.counts(3))
