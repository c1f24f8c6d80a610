"""Fitting multivariate Hawkes models by MAP-EM over the branching structure.

The paper fits its per-cluster models "using Gibbs sampling as described
in [Linderman & Adams 2015]".  That sampler augments the model with the
latent parent of each event and alternates between sampling parents and
rates.  The deterministic counterpart implemented here runs
expectation-maximisation over the *same* augmentation: the E-step computes
each event's parent responsibilities (background vs. every plausible
earlier event), the M-step re-estimates background rates and the weight
matrix from the expected counts, with conjugate Gamma priors giving MAP
estimates that stay finite on the short per-cluster sequences.

Multiple sequences (one per meme cluster, as in the paper) are pooled by
summing sufficient statistics, or fitted independently — both in one EM
loop over the stacked terms of :mod:`repro.hawkes.terms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.terms import SequenceTerms

__all__ = ["FitConfig", "FitResult", "fit_hawkes_em"]


@dataclass(frozen=True)
class FitConfig:
    """Hyper-parameters of the EM fit.

    Gamma priors ``Gamma(shape, rate)`` act as pseudo-counts: they
    prevent zero/degenerate estimates on sparse clusters (the same role
    the priors play in the Gibbs formulation).  ``weight_prior_rate``
    adds pseudo-exposure that shrinks spurious cross-community weights:
    errors in non-negative weights cannot cancel, and for *low-volume*
    sources the small exposure denominator creates a feedback loop that
    inflates their estimated outgoing influence.  Five events of
    pseudo-exposure is negligible for active communities and breaks the
    loop for tiny ones (ground-truth experiments in
    ``bench_ablation_kernel`` / EXPERIMENTS.md).

    The default kernel is deliberately *tight* (``beta = 4``, a mean
    reaction delay of six hours): ground-truth experiments on the
    synthetic world show root-cause attribution degrades with wide
    excitation windows — distant high-volume sources soak up credit —
    while tight windows recover the planted influence matrix closely
    even when the true decay is slower.  (The paper similarly fixes its
    impulse shape.)  ``bench_ablation_kernel`` quantifies this.

    With ``learn_beta`` the kernel decay rate is instead re-estimated
    each M-step from the expected triggered delays
    (``beta = sum r / sum r*dt``).  It recovers the true timescale well
    but inherits the wide-window attribution bias, so it is off by
    default.
    """

    kernel: ExponentialKernel = field(
        default_factory=lambda: ExponentialKernel(4.0)
    )
    max_iterations: int = 100
    tolerance: float = 1e-6
    background_prior_shape: float = 1.01
    background_prior_rate: float = 0.01
    weight_prior_shape: float = 1.01
    weight_prior_rate: float = 5.0
    window_mass: float = 0.999
    learn_beta: bool = False
    beta_bounds: tuple[float, float] = (0.05, 50.0)

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.beta_bounds[0] <= 0 or self.beta_bounds[0] >= self.beta_bounds[1]:
            raise ValueError("beta_bounds must be an increasing positive pair")


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_hawkes_em`."""

    model: HawkesModel
    n_iterations: int
    converged: bool
    log_likelihoods: tuple[float, ...]


def fit_hawkes_em(
    sequences: list[EventSequence],
    n_processes: int,
    config: FitConfig | None = None,
    *,
    initial_model: HawkesModel | None = None,
    pooled: bool = True,
) -> FitResult | list[FitResult]:
    """Fit Hawkes models to event sequences in one stacked EM.

    ``pooled=True`` fits one model to all ``sequences``, assumed i.i.d.
    under it, and returns its :class:`FitResult`.  ``pooled=False`` fits
    one model per sequence (the paper's per-cluster fits) and returns
    their results in order, each the same bits as the sequence's fit
    alone.  ``initial_model`` warm-starts every model; by default they
    start from the empirical event rates and a small uniform weight
    matrix.

    Either way one EM loop runs over stacked terms: ``mu`` is ``(M, K)``
    and ``W`` is ``(M, K, K)``, an iteration is a handful of ``bincount``
    reductions over the model cells, and a per-model active mask freezes
    each model at the iteration where its own fit stops.
    """
    if n_processes < 1:
        raise ValueError("n_processes must be >= 1")
    if not sequences:
        raise ValueError("need at least one sequence")
    for sequence in sequences:
        if len(sequence) and int(sequence.processes.max()) >= n_processes:
            raise ValueError("sequence references a process >= n_processes")
    config = config or FitConfig()
    k = n_processes
    n_models = 1 if pooled else len(sequences)
    group_models = np.zeros(len(sequences), np.int64) if pooled else np.arange(n_models)
    kernel = config.kernel if initial_model is None else initial_model.kernel
    if config.learn_beta:
        kernel = ExponentialKernel(np.full(n_models, float(kernel.beta)))

    def build(groups: np.ndarray) -> SequenceTerms:
        return SequenceTerms(
            [sequences[g] for g in groups],
            kernel,
            k,
            kernel.support_window(config.window_mass),
            models=group_models[groups],
        )

    terms = build(np.arange(len(sequences)))
    horizon = np.bincount(terms.models, terms.horizons, minlength=n_models)
    if initial_model is not None:
        background = np.tile(initial_model.background, (n_models, 1))
        weights = np.tile(initial_model.weights, (n_models, 1, 1))
    else:
        counts = np.bincount(terms.event_cell, minlength=n_models * k)
        background = np.maximum(counts.reshape(-1, k) / horizon[:, None], 1e-6) * 0.5
        weights = np.full((n_models, k, k), 0.05)

    # Everything but (mu, W) is fixed for a given kernel, so the terms are
    # built once.  With learn_beta, the groups of the models whose kernel
    # moved get new terms; each model takes its statistics from the one
    # set of terms that owns it (None: every model).
    pieces: list[tuple[SequenceTerms, np.ndarray | None]] = [(terms, None)]
    active = np.ones(n_models, dtype=bool)
    converged = np.zeros(n_models, dtype=bool)
    n_iterations = np.zeros(n_models, dtype=np.int64)
    history = np.empty((config.max_iterations, n_models))

    def per_model(compute) -> np.ndarray:
        # compute(terms) over the pieces, each model's row from its owner.
        out = None
        for terms, owned in pieces:
            values = compute(terms)
            if owned is None:
                return values
            out = np.zeros_like(values) if out is None else out
            out[owned] = values[owned]
        return out

    def expected(terms: SequenceTerms) -> np.ndarray:
        # One row per model: background counts (K), edge counts (K * K),
        # the kernel mass each source process emits before the horizon
        # (K), and with learn_beta the summed parent responsibilities and
        # responsibility-weighted delays.
        bg_prob, parent_prob = terms.responsibilities(background, weights)
        stats = [
            (terms.event_cell, bg_prob, k),
            (terms.pair_cell, parent_prob, k * k),
            (terms.event_cell, terms.remaining, k),
        ]
        if config.learn_beta:
            stats += [
                (terms.pair_model, parent_prob, 1),
                (terms.pair_model, parent_prob * terms.delays, 1),
            ]
        columns = [
            np.bincount(index, values, minlength=n_models * width)
            for index, values, width in stats
        ]
        return np.hstack([column.reshape(n_models, -1) for column in columns])

    for iteration in range(1, config.max_iterations + 1):
        stats = per_model(expected)
        background_counts, edge_counts, exposure = np.split(
            stats[:, : 2 * k + k * k], [k, k + k * k], axis=1
        )
        new_background = (
            background_counts + config.background_prior_shape - 1.0
        ) / (horizon + config.background_prior_rate)[:, None]
        new_weights = (
            edge_counts.reshape(-1, k, k) + config.weight_prior_shape - 1.0
        ) / (exposure + config.weight_prior_rate)[:, :, None]
        # Frozen models keep their parameters.
        new_background = np.maximum(new_background, 0.0)
        background = np.where(active[:, None], new_background, background)
        weights = np.where(active[:, None, None], np.maximum(new_weights, 0.0), weights)

        if config.learn_beta:
            triggered_mass, triggered_delay = stats[:, -2], stats[:, -1]
            moves = active & (triggered_delay > 0) & (triggered_mass > 1.0)
            beta = kernel.beta.copy()
            beta[moves] = np.clip(
                triggered_mass[moves] / triggered_delay[moves], *config.beta_bounds
            )
            moved = beta != kernel.beta
            if moved.any():
                kernel = ExponentialKernel(beta)
                pieces = [
                    (terms, ~moved if owned is None else owned & ~moved)
                    for terms, owned in pieces
                ]
                pieces = [piece for piece in pieces if (piece[1] & active).any()]
                pieces.append((build(np.flatnonzero(moved[group_models])), moved))

        log_likelihood = per_model(
            lambda terms: terms.log_likelihood(background, weights)
        )
        history[iteration - 1] = log_likelihood
        n_iterations[active] = iteration
        if iteration >= 2:
            previous = history[iteration - 2]
            done = active & (
                np.abs(log_likelihood - previous)
                <= config.tolerance * np.maximum(1.0, np.abs(previous))
            )
            converged |= done
            active &= ~done
        if not active.any():
            break

    results = [
        FitResult(
            model=HawkesModel(
                background=background[m],
                weights=weights[m],
                kernel=ExponentialKernel(float(kernel.beta[m]))
                if config.learn_beta
                else kernel,
            ),
            n_iterations=int(n_iterations[m]),
            converged=bool(converged[m]),
            log_likelihoods=tuple(history[: n_iterations[m], m].tolist()),
        )
        for m in range(n_models)
    ]
    return results[0] if pooled else results
