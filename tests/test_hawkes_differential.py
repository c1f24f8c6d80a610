"""The vectorised Hawkes EM against the per-event brute-force reference.

``fit_hawkes_em``, ``SequenceTerms.causes`` and
``HawkesModel.log_likelihood`` must agree with the loops in
``tests/hawkes_reference.py`` on sequences chosen to hit the edges of
the vectorised terms: tied timestamps, a pair exactly one window apart,
empty and single-event sequences, one process, pooled sequences, a warm
start, a learned kernel and a non-exponential kernel.  Each case is fitted
alone, and every case's sequences are fitted again as one per-sequence
stack.  A cluster's fit, roots and matrices must be the same bits alone,
in a two-cluster shard and in the whole stack, and the Gibbs sampler's
vectorised parent draw and hard roots must match the per-event loops.
"""

import numpy as np
import pytest

from repro.analysis.influence import fit_cluster_shard
from repro.hawkes.attribution import attribute_root_causes
from repro.hawkes.fit import FitConfig, fit_hawkes_em
from repro.hawkes.gibbs import _draw_parents
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.simulate import simulate_branching
from repro.hawkes.terms import SequenceTerms
from tests.hawkes_reference import (
    parent_responsibilities,
    reference_fit,
    reference_log_likelihood,
    reference_responsibilities,
    roots_from_parents,
    sample_parents,
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


def _assert_fits_match(fast, slow):
    assert fast.n_iterations == slow.n_iterations
    assert fast.converged == slow.converged
    np.testing.assert_allclose(fast.log_likelihoods, slow.log_likelihoods, rtol=RTOL)
    np.testing.assert_allclose(fast.model.background, slow.model.background, rtol=RTOL)
    np.testing.assert_allclose(fast.model.weights, slow.model.weights, rtol=RTOL)
    assert type(fast.model.kernel) is type(slow.model.kernel)
    for name, value in vars(slow.model.kernel).items():
        assert getattr(fast.model.kernel, name) == pytest.approx(value, rel=RTOL)


def _every_case_sequence():
    # Every sequence of every case, as one stack over three processes.
    return [
        sequence for case in CASES.values() for sequence in case()[0]
    ]


STACK_CONFIGS = {
    "default": (FitConfig(), None),
    # Some models hit the cap while others converge well before it.
    "max-iterations": (FitConfig(max_iterations=20), None),
    "warm-start": (
        FitConfig(kernel=ExponentialKernel(3.0)),
        HawkesModel(
            np.array([0.4, 0.25, 0.1]),
            np.array([[0.35, 0.2, 0.0], [0.1, 0.3, 0.05], [0.0, 0.1, 0.2]]),
            ExponentialKernel(3.0),
        ),
    ),
    "learn-beta": (FitConfig(learn_beta=True), None),
}


@pytest.mark.parametrize("name", list(STACK_CONFIGS))
def test_stack_of_every_case_matches_reference(name):
    config, initial = STACK_CONFIGS[name]
    sequences = _every_case_sequence()
    fits = fit_hawkes_em(
        sequences, 3, config, initial_model=initial, pooled=False
    )
    assert len(fits) == len(sequences)
    for sequence, fast in zip(sequences, fits):
        _assert_fits_match(
            fast, reference_fit([sequence], 3, config, initial_model=initial)
        )
    if name == "max-iterations":
        assert any(fit.n_iterations == 20 and not fit.converged for fit in fits)
        assert any(fit.converged and fit.n_iterations < 10 for fit in fits)


@pytest.mark.parametrize(
    "config", [FitConfig(), FitConfig(learn_beta=True)], ids=["fixed", "learn-beta"]
)
def test_cluster_results_do_not_depend_on_the_stack(config):
    sequences = _simulated(TRUTH, 60.0, seed=13, count=6)
    sequences.insert(2, EventSequence(np.array([4.0]), np.array([1]), 60.0))
    stack = fit_hawkes_em(sequences, 2, config, pooled=False)
    stack_roots = np.split(
        attribute_root_causes([fit.model for fit in stack], sequences),
        np.cumsum([len(sequence) for sequence in sequences])[:-1],
    )
    stack_matrices = fit_cluster_shard(sequences, 2, config)
    for index, sequence in enumerate(sequences):
        other = sequences[(index + 1) % len(sequences)]
        (alone,) = fit_hawkes_em([sequence], 2, config, pooled=False)
        pair = fit_hawkes_em([other, sequence], 2, config, pooled=False)
        for fit in (stack[index], pair[1]):
            assert np.array_equal(fit.model.background, alone.model.background)
            assert np.array_equal(fit.model.weights, alone.model.weights)
            assert fit.model.kernel == alone.model.kernel
            assert fit.log_likelihoods == alone.log_likelihoods
        roots = attribute_root_causes(alone.model, sequence)
        pair_roots = attribute_root_causes(
            [fit.model for fit in pair], [other, sequence]
        )
        assert np.array_equal(stack_roots[index], roots)
        assert np.array_equal(pair_roots[len(other):], roots)
        ((status, matrices),) = fit_cluster_shard([sequence], 2, config)
        assert status == "ok"
        pair_matrices = fit_cluster_shard([other, sequence], 2, config)[1]
        for got in (stack_matrices[index], pair_matrices):
            assert got[0] == "ok"
            assert np.array_equal(got[1].expected_events, matrices.expected_events)
            assert np.array_equal(got[1].event_counts, matrices.event_counts)


@pytest.mark.parametrize("case", ["ties", "window-edge", "one-process", "pooled"])
def test_gibbs_draw_matches_per_event_loop(case):
    sequences, n_processes, config, _ = CASES[case]()
    rng = np.random.default_rng(17)
    kernel = config.kernel
    window = kernel.support_window(config.window_mass)
    for sequence in sequences:
        terms = SequenceTerms([sequence], kernel, n_processes, window)
        for _ in range(20):
            background = rng.gamma(2.0, 0.2, size=n_processes)
            weights = rng.gamma(1.0, 0.3, size=(n_processes, n_processes))
            uniforms = rng.random(len(sequence))
            model = HawkesModel(background, weights, kernel)
            drawn = _draw_parents(terms, background, weights, uniforms)
            expected = sample_parents(model, sequence, uniforms, window)
            np.testing.assert_array_equal(drawn, expected)
            # Hard roots: the attribution sweep over one-hot causes.
            caused = np.flatnonzero(drawn >= 0)
            roots = terms.propagate(
                (drawn < 0).astype(np.float64),
                caused,
                drawn[caused],
                np.ones(caused.size),
            )
            hard = roots_from_parents(drawn, sequence.processes)
            np.testing.assert_array_equal(
                roots, np.eye(n_processes)[hard].reshape(-1, n_processes)
            )
