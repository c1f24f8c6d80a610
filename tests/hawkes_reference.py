"""Brute-force reference for the Hawkes EM: one Python pass per event.

These are the per-event E-step, M-step accumulation, log-likelihood and
Gibbs parent-draw and root loops that the vectorised
:mod:`repro.hawkes.terms` replaced.  They are slow and obviously
correct, and serve as the oracle of ``tests/test_hawkes_differential.py``.
:func:`intensity` evaluates the conditional intensity event by event,
the independent side of the log-likelihood and compensator checks.
Ogata's thinning simulator is the same kind of oracle for
:func:`repro.hawkes.simulate.simulate_branching`.
"""

from __future__ import annotations

import numpy as np

from repro.hawkes.fit import FitConfig, FitResult
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.terms import SequenceTerms


def intensity(model: HawkesModel, sequence: EventSequence, t: float) -> np.ndarray:
    """Conditional intensity vector at time ``t`` given past events."""
    past = sequence.times < t
    contributions = np.zeros(model.n_processes)
    if np.any(past):
        dts = t - sequence.times[past]
        density = np.asarray(model.kernel.density(dts))
        sources = sequence.processes[past]
        # lambda_j(t) = mu_j + sum_n W[k_n, j] * phi(t - t_n)
        for j in range(model.n_processes):
            contributions[j] = np.sum(model.weights[sources, j] * density)
    return model.background + contributions


def parent_responsibilities(
    model: HawkesModel,
    sequence: EventSequence,
    *,
    window: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The vectorised E-step as per-event lists: a view of
    :meth:`SequenceTerms.responsibilities` on a stack of one.

    ``background_prob[n]`` is the probability event ``n`` is an
    immigrant; ``parent_indices[n]`` lists its candidate parents (within
    ``window``, default ``model.kernel.support_window()``) with a
    positive probability, and ``parent_probs[n]`` their probabilities.
    """
    terms = SequenceTerms([sequence], model.kernel, model.n_processes, window)
    background_prob, parent_prob = terms.responsibilities(
        model.background[None], model.weights[None]
    )
    if not len(sequence):
        return background_prob, [], []
    keep = parent_prob > 0
    inner = np.cumsum(np.bincount(terms.child[keep], minlength=len(sequence)))[:-1]
    return (
        background_prob,
        np.split(terms.parent[keep], inner),
        np.split(parent_prob[keep], inner),
    )


def reference_responsibilities(
    model: HawkesModel, sequence: EventSequence, window: float | None = None
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Per-event E-step: background vs every earlier event within ``window``."""
    times = sequence.times
    processes = sequence.processes
    n = len(sequence)
    if window is None:
        window = model.kernel.support_window()
    background_prob = np.ones(n)
    parent_indices: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    parent_probs: list[np.ndarray] = [np.empty(0)] * n
    start = 0
    for event in range(n):
        t = times[event]
        while start < event and times[start] < t - window:
            start += 1
        candidates = np.arange(start, event)
        if candidates.size:
            dts = t - times[candidates]
            candidates = candidates[dts > 0]
        if candidates.size == 0:
            continue
        dts = t - times[candidates]
        rates = model.weights[
            processes[candidates], processes[event]
        ] * np.asarray(model.kernel.density(dts))
        mu = model.background[processes[event]]
        total = mu + rates.sum()
        if total <= 0:
            continue
        background_prob[event] = mu / total
        keep = rates > 0
        parent_indices[event] = candidates[keep]
        parent_probs[event] = rates[keep] / total
    return background_prob, parent_indices, parent_probs


def reference_log_likelihood(model: HawkesModel, sequence: EventSequence) -> float:
    """Exact log-likelihood: the exponential recursion, else an O(n^2) sum."""
    times = sequence.times
    processes = sequence.processes
    horizon = sequence.horizon
    n = len(sequence)
    log_term = 0.0
    if n and not isinstance(model.kernel, ExponentialKernel):
        lambdas = np.empty(n)
        for event in range(n):
            earlier = times < times[event]
            lam = model.background[processes[event]]
            if np.any(earlier):
                phi = np.asarray(model.kernel.density(times[event] - times[earlier]))
                lam += float(
                    (model.weights[processes[earlier], processes[event]] * phi).sum()
                )
            lambdas[event] = lam
        log_term = float(np.log(np.clip(lambdas, 1e-300, None)).sum())
    elif n:
        # The excitation vector decays multiplicatively between distinct
        # timestamps; same-timestamp events join it once time moves on.
        beta = model.kernel.beta
        excitation = np.zeros(model.n_processes)
        pending = np.zeros(model.n_processes)
        lambdas = np.empty(n)
        previous_time = 0.0
        for event in range(n):
            dt = times[event] - previous_time
            if dt > 0:
                excitation = (excitation + pending) * np.exp(-beta * dt)
                pending = np.zeros(model.n_processes)
            lambdas[event] = (
                model.background[processes[event]] + excitation[processes[event]]
            )
            pending = pending + model.weights[processes[event]] * beta
            previous_time = times[event]
        log_term = float(np.log(np.clip(lambdas, 1e-300, None)).sum())
    compensator = float(model.background.sum() * horizon)
    if n:
        remaining = np.asarray(model.kernel.integral(horizon - times))
        compensator += float((model.weights[processes].sum(axis=1) * remaining).sum())
    return log_term - compensator


def reference_fit(
    sequences: list[EventSequence],
    n_processes: int,
    config: FitConfig | None = None,
    *,
    initial_model: HawkesModel | None = None,
) -> FitResult:
    """MAP-EM with per-event accumulation of the sufficient statistics."""
    config = config or FitConfig()
    total_horizon = float(sum(s.horizon for s in sequences))
    counts = np.zeros(n_processes, dtype=np.float64)
    for sequence in sequences:
        counts += sequence.counts(n_processes)
    if initial_model is not None:
        model = initial_model
    else:
        model = HawkesModel(
            background=np.maximum(counts / total_horizon, 1e-6) * 0.5,
            weights=np.full((n_processes, n_processes), 0.05),
            kernel=config.kernel,
        )

    log_likelihoods: list[float] = []
    converged = False
    iteration = 0
    for iteration in range(1, config.max_iterations + 1):
        window = model.kernel.support_window(config.window_mass)
        background_counts = np.zeros(n_processes)
        edge_counts = np.zeros((n_processes, n_processes))
        triggered_mass = 0.0
        triggered_delay = 0.0
        exposure = np.zeros(n_processes)
        for sequence in sequences:
            bg_prob, parent_idx, parent_prob = reference_responsibilities(
                model, sequence, window
            )
            processes = sequence.processes
            times = sequence.times
            np.add.at(background_counts, processes, bg_prob)
            for event in range(len(sequence)):
                idx = parent_idx[event]
                if idx.size:
                    np.add.at(
                        edge_counts,
                        (processes[idx], np.full(idx.size, processes[event])),
                        parent_prob[event],
                    )
                    triggered_mass += float(parent_prob[event].sum())
                    triggered_delay += float(
                        (parent_prob[event] * (times[event] - times[idx])).sum()
                    )
            if len(sequence):
                remaining = np.asarray(
                    model.kernel.integral(sequence.horizon - sequence.times)
                )
                np.add.at(exposure, processes, remaining)

        new_background = np.maximum(
            (background_counts + config.background_prior_shape - 1.0)
            / (total_horizon + config.background_prior_rate),
            0.0,
        )
        new_weights = np.maximum(
            (edge_counts + config.weight_prior_shape - 1.0)
            / (exposure + config.weight_prior_rate)[:, None],
            0.0,
        )
        kernel = model.kernel
        if config.learn_beta and triggered_delay > 0 and triggered_mass > 1.0:
            kernel = ExponentialKernel(
                float(
                    np.clip(
                        triggered_mass / triggered_delay,
                        config.beta_bounds[0],
                        config.beta_bounds[1],
                    )
                )
            )
        new_model = HawkesModel(
            background=new_background, weights=new_weights, kernel=kernel
        )
        log_likelihoods.append(
            float(sum(reference_log_likelihood(new_model, s) for s in sequences))
        )
        model = new_model
        if len(log_likelihoods) >= 2 and abs(
            log_likelihoods[-1] - log_likelihoods[-2]
        ) <= config.tolerance * max(1.0, abs(log_likelihoods[-2])):
            converged = True
            break

    return FitResult(
        model=model,
        n_iterations=iteration,
        converged=converged,
        log_likelihoods=tuple(log_likelihoods),
    )


def sample_parents(
    model: HawkesModel,
    sequence: EventSequence,
    uniforms: np.ndarray,
    window: float,
) -> np.ndarray:
    """Per-event Gibbs parent draw (-1 = background), one uniform each.

    ``uniforms[n]`` in ``[0, 1)`` scaled by event ``n``'s total rate picks
    the background below ``mu``, else the first candidate whose
    cumulative rate reaches it.
    """
    times = sequence.times
    processes = sequence.processes
    n = len(sequence)
    parents = np.full(n, -1, dtype=np.int64)
    start = 0
    for event in range(n):
        t = times[event]
        while times[start] < t - window:
            start += 1
        candidates = np.arange(start, event)
        if candidates.size:
            dts = t - times[candidates]
            keep = dts > 0
            candidates = candidates[keep]
        if candidates.size == 0:
            continue
        dts = t - times[candidates]
        rates = model.weights[
            processes[candidates], processes[event]
        ] * np.asarray(model.kernel.density(dts))
        mu = model.background[processes[event]]
        total = mu + rates.sum()
        if total <= 0:
            continue
        u = uniforms[event] * total
        if u < mu:
            continue  # background
        cumulative = mu + np.cumsum(rates)
        parents[event] = candidates[int(np.searchsorted(cumulative, u))]
    return parents


def roots_from_parents(parents: np.ndarray, processes: np.ndarray) -> np.ndarray:
    """Root community per event under one hard parent assignment."""
    n = parents.size
    roots = np.empty(n, dtype=np.int64)
    for event in range(n):
        parent = parents[event]
        roots[event] = processes[event] if parent == -1 else roots[parent]
    return roots


def simulate_thinning(
    model: HawkesModel,
    horizon: float,
    rng: np.random.Generator,
    *,
    max_events: int = 1_000_000,
) -> EventSequence:
    """Ogata's modified thinning algorithm (no latent structure): an
    independent simulator that cross-validates the branching sampler's
    marginal law."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if model.spectral_radius() >= 1.0:
        raise ValueError("model is super-critical (spectral radius >= 1)")
    if not isinstance(model.kernel, ExponentialKernel):
        raise TypeError(
            "thinning relies on the exponential kernel's decay recursion; "
            "use simulate_branching for other kernels"
        )
    k = model.n_processes
    beta = model.kernel.beta
    # Recursive excitation state: excitation[j] is the summed kernel
    # contribution to process j at the current time.
    excitation = np.zeros(k)
    t = 0.0
    times: list[float] = []
    processes: list[int] = []
    while True:
        upper = float(model.background.sum() + excitation.sum())
        if upper <= 0:
            break
        wait = rng.exponential(1.0 / upper)
        t_new = t + wait
        if t_new > horizon:
            break
        # Exponential kernel decays multiplicatively between events.
        excitation = excitation * np.exp(-beta * wait)
        t = t_new
        lambdas = model.background + excitation
        total = float(lambdas.sum())
        if rng.uniform(0.0, upper) <= total:
            target = int(rng.choice(k, p=lambdas / total))
            times.append(t)
            processes.append(target)
            excitation = excitation + model.weights[target] * beta
            if len(times) > max_events:
                raise ValueError(f"simulation exceeded max_events={max_events}")
    return EventSequence(
        times=np.array(times),
        processes=np.array(processes, dtype=np.int64),
        horizon=horizon,
    )
