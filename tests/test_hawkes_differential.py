"""The vectorised Hawkes EM against the per-event brute-force reference.

``fit_hawkes_em``, ``parent_responsibilities`` and
``HawkesModel.log_likelihood`` must agree with the loops in
``tests/hawkes_reference.py`` on sequences chosen to hit the edges of
the vectorised terms: tied timestamps, a pair exactly one window apart,
empty and single-event sequences, one process, pooled sequences, a warm
start, a learned kernel and a non-exponential kernel.
"""

import numpy as np
import pytest

from repro.hawkes.fit import FitConfig, fit_hawkes_em, parent_responsibilities
from repro.hawkes.kernels import ExponentialKernel, PowerLawKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.simulate import simulate_branching
from tests.hawkes_reference import (
    reference_fit,
    reference_log_likelihood,
    reference_responsibilities,
)

RTOL = 1e-12

TRUTH = HawkesModel(
    np.array([0.4, 0.25]),
    np.array([[0.35, 0.2], [0.1, 0.3]]),
    ExponentialKernel(3.0),
)


def _simulated(model, horizon, seed, count=1):
    rng = np.random.default_rng(seed)
    return [simulate_branching(model, horizon, rng).sequence for _ in range(count)]


def _ties():
    # Bursts of simultaneous events, some of them with more than eight
    # strictly earlier candidates inside the window.
    times = np.repeat([0.5, 0.9, 1.0, 1.1, 1.3, 3.0, 3.2], [3, 4, 1, 5, 2, 2, 3])
    processes = np.arange(times.size) % 3
    return [EventSequence(times.astype(float), processes, horizon=10.0)], 3


def _window_edge():
    # Parents exactly one support window before their children: the
    # window edge is inclusive.
    window = ExponentialKernel(4.0).support_window(FitConfig().window_mass)
    children = np.array([2.0, 5.0, 7.25])
    times = np.sort(np.concatenate([children, children - window, [6.0]]))
    processes = np.array([0, 1, 0, 1, 1, 0, 1])
    return [EventSequence(times, processes, horizon=9.0)], 2


CASES = {
    "ties": lambda: (*_ties(), FitConfig(), None),
    "window-edge": lambda: (*_window_edge(), FitConfig(), None),
    "empty": lambda: (
        [EventSequence(np.array([]), np.array([]), horizon=30.0)], 2, FitConfig(), None
    ),
    "single-event": lambda: (
        [EventSequence(np.array([4.0]), np.array([1]), horizon=30.0)], 2,
        FitConfig(), None,
    ),
    "one-process": lambda: (
        _simulated(
            HawkesModel(np.array([0.8]), np.array([[0.5]]), ExponentialKernel(2.0)),
            60.0, seed=3,
        ),
        1, FitConfig(), None,
    ),
    "pooled": lambda: (
        _simulated(TRUTH, 40.0, seed=5, count=4)
        + [EventSequence(np.array([]), np.array([]), horizon=40.0)],
        2, FitConfig(), None,
    ),
    "warm-start": lambda: (
        _simulated(TRUTH, 80.0, seed=7), 2, FitConfig(kernel=ExponentialKernel(3.0)),
        TRUTH,
    ),
    "learn-beta": lambda: (
        _simulated(TRUTH, 80.0, seed=9), 2, FitConfig(learn_beta=True), None
    ),
    "power-law": lambda: (
        _simulated(TRUTH, 60.0, seed=11), 2,
        FitConfig(kernel=PowerLawKernel(1.5, 0.5)), None,
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_matches_per_event_reference(case):
    sequences, n_processes, config, initial = CASES[case]()
    fast = fit_hawkes_em(sequences, n_processes, config, initial_model=initial)
    slow = reference_fit(sequences, n_processes, config, initial_model=initial)

    assert fast.n_iterations == slow.n_iterations
    assert fast.converged == slow.converged
    np.testing.assert_allclose(fast.log_likelihoods, slow.log_likelihoods, rtol=RTOL)
    np.testing.assert_allclose(fast.model.background, slow.model.background, rtol=RTOL)
    np.testing.assert_allclose(fast.model.weights, slow.model.weights, rtol=RTOL)
    assert type(fast.model.kernel) is type(slow.model.kernel)
    for name, value in vars(slow.model.kernel).items():
        assert getattr(fast.model.kernel, name) == pytest.approx(value, rel=RTOL)

    model = slow.model
    for sequence in sequences:
        assert model.log_likelihood(sequence) == pytest.approx(
            reference_log_likelihood(model, sequence), rel=RTOL
        )
        bg, idx, probs = parent_responsibilities(model, sequence)
        ref_bg, ref_idx, ref_probs = reference_responsibilities(model, sequence)
        np.testing.assert_allclose(bg, ref_bg, rtol=RTOL)
        assert len(idx) == len(ref_idx) == len(sequence)
        for got, want in zip(idx, ref_idx):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(probs, ref_probs):
            np.testing.assert_allclose(got, want, rtol=RTOL)
