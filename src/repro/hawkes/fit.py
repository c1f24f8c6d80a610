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
summing sufficient statistics, or fitted independently — both supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.terms import SequenceTerms

__all__ = ["FitConfig", "FitResult", "fit_hawkes_em", "parent_responsibilities"]


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


def parent_responsibilities(
    model: HawkesModel,
    sequence: EventSequence,
    *,
    window: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """E-step: per-event probabilities over possible causes.

    A per-event view of :meth:`SequenceTerms.causes`.

    Returns
    -------
    (background_prob, parent_indices, parent_probs):
        ``background_prob[n]`` is the probability event ``n`` is an
        immigrant; ``parent_indices[n]`` lists candidate parent events
        (within ``window``, default ``model.kernel.support_window()``)
        with a positive probability; ``parent_probs[n]`` their
        probabilities.  For each event the probabilities sum to 1.
    """
    terms = SequenceTerms(sequence, model.kernel, model.n_processes, window)
    background_prob, bounds, parents, probs = terms.causes(
        model.background, model.weights
    )
    if not len(sequence):
        return background_prob, [], []
    inner = bounds[1:-1]
    return background_prob, np.split(parents, inner), np.split(probs, inner)


def fit_hawkes_em(
    sequences: list[EventSequence],
    n_processes: int,
    config: FitConfig | None = None,
    *,
    initial_model: HawkesModel | None = None,
) -> FitResult:
    """Fit one Hawkes model to one or more event sequences.

    Parameters
    ----------
    sequences:
        Realisations assumed i.i.d. under the model (e.g. one per meme
        cluster when pooling, or a singleton list for per-cluster fits).
    n_processes:
        Number of processes ``K`` (communities).
    config:
        EM hyper-parameters.
    initial_model:
        Optional warm start; default initialisation uses empirical event
        rates and a small uniform weight matrix.
    """
    if n_processes < 1:
        raise ValueError("n_processes must be >= 1")
    if not sequences:
        raise ValueError("need at least one sequence")
    for sequence in sequences:
        if len(sequence) and int(sequence.processes.max()) >= n_processes:
            raise ValueError("sequence references a process >= n_processes")
    config = config or FitConfig()
    total_horizon = float(sum(s.horizon for s in sequences))
    counts = np.zeros(n_processes, dtype=np.float64)
    for sequence in sequences:
        counts += sequence.counts(n_processes)

    if initial_model is not None:
        background = initial_model.background
        weights = initial_model.weights
        kernel = initial_model.kernel
    else:
        background = np.maximum(counts / total_horizon, 1e-6) * 0.5
        weights = np.full((n_processes, n_processes), 0.05)
        kernel = config.kernel

    # Everything but (mu, W) is fixed for a given kernel, so each
    # sequence's terms are built once and rebuilt only when learn_beta
    # moves the kernel.  The E-step of one iteration reuses the terms the
    # previous iteration's log-likelihood built for the same kernel.
    cached: tuple[object, list[SequenceTerms]] | None = None

    def terms_for(kernel) -> list[SequenceTerms]:
        nonlocal cached
        if cached is None or cached[0] != kernel:
            window = kernel.support_window(config.window_mass)
            cached = (
                kernel,
                [SequenceTerms(s, kernel, n_processes, window) for s in sequences],
            )
        return cached[1]

    log_likelihoods: list[float] = []
    converged = False
    iteration = 0
    for iteration in range(1, config.max_iterations + 1):
        # Sufficient statistics accumulated across sequences.
        background_counts = np.zeros(n_processes)
        edge_counts = np.zeros((n_processes, n_processes))
        triggered_mass = 0.0  # sum of parent responsibilities
        triggered_delay = 0.0  # sum of responsibility-weighted delays
        # Expected kernel mass emitted by events of each source process,
        # accounting for right-censoring at the horizon.
        exposure = np.zeros(n_processes)
        for terms in terms_for(kernel):
            bg_prob, parent_prob = terms.responsibilities(background, weights)
            processes = terms.sequence.processes
            # Event-then-parent order, as the pairs are laid out.
            np.add.at(background_counts, processes, bg_prob)
            np.add.at(edge_counts.reshape(-1), terms.flat, parent_prob)
            if config.learn_beta:
                triggered_mass += float(parent_prob.sum())
                triggered_delay += float((parent_prob * terms.delays).sum())
            np.add.at(exposure, processes, terms.remaining)

        background = (
            background_counts + config.background_prior_shape - 1.0
        ) / (total_horizon + config.background_prior_rate)
        background = np.maximum(background, 0.0)
        denominator = exposure + config.weight_prior_rate
        weights = (
            edge_counts + config.weight_prior_shape - 1.0
        ) / denominator[:, None]
        weights = np.maximum(weights, 0.0)

        if config.learn_beta and triggered_delay > 0 and triggered_mass > 1.0:
            beta = float(
                np.clip(
                    triggered_mass / triggered_delay,
                    config.beta_bounds[0],
                    config.beta_bounds[1],
                )
            )
            kernel = ExponentialKernel(beta)

        log_likelihood = float(
            sum(
                terms.log_likelihood(background, weights)
                for terms in terms_for(kernel)
            )
        )
        log_likelihoods.append(log_likelihood)
        if (
            len(log_likelihoods) >= 2
            and abs(log_likelihoods[-1] - log_likelihoods[-2])
            <= config.tolerance * max(1.0, abs(log_likelihoods[-2]))
        ):
            converged = True
            break

    return FitResult(
        model=HawkesModel(background=background, weights=weights, kernel=kernel),
        n_iterations=iteration,
        converged=converged,
        log_likelihoods=tuple(log_likelihoods),
    )
