"""Gibbs sampling for Hawkes models — the paper's actual inference method.

Section 5.2: "We fit Hawkes models using Gibbs sampling as described in
[Linderman & Adams 2015]".  That sampler augments the model with each
event's latent parent and alternates:

1. **Parent step** — sample every event's parent from its conditional
   (background vs each sufficiently recent earlier event), given rates.
2. **Rate step** — with parents fixed, the Gamma priors are conjugate:
   background rates draw from ``Gamma(a + n_background_k, b + T)`` and
   weights from ``Gamma(a + n_edges_ij, b + exposure_i)``.

The posterior mean over samples estimates the same quantities the EM
(:mod:`repro.hawkes.fit`) computes deterministically; the test suite
checks the two agree.  Root-cause attribution follows directly from the
sampled parent chains: each sample yields *hard* root assignments, and
averaging over samples gives the per-event root distribution of
:func:`repro.hawkes.attribution.attribute_root_causes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hawkes.fit import FitConfig
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.terms import SequenceTerms

__all__ = ["GibbsResult", "gibbs_sample_hawkes"]


@dataclass(frozen=True)
class GibbsResult:
    """Posterior summaries from the Gibbs run.

    Attributes
    ----------
    posterior_mean:
        Model with posterior-mean background rates and weights.
    background_samples, weight_samples:
        Kept samples, shape ``(n_samples, K)`` / ``(n_samples, K, K)``.
    root_distribution:
        Per event, the fraction of kept samples in which its cascade's
        root lay on each community — the sampling analogue of
        :func:`repro.hawkes.attribution.attribute_root_causes`.
    """

    posterior_mean: HawkesModel
    background_samples: np.ndarray
    weight_samples: np.ndarray
    root_distribution: np.ndarray


def _draw_parents(
    terms: SequenceTerms,
    background: np.ndarray,
    weights: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """One parent per event (-1 = background) from one uniform each: a
    categorical draw over the flat candidate pairs, whose probabilities
    are the stacked responsibilities."""
    background_prob, parent_prob = terms.responsibilities(
        background[None], weights[None]
    )
    child = terms.child
    counts = np.bincount(child, minlength=uniforms.size)
    starts = np.cumsum(counts) - counts
    cumulative = np.cumsum(parent_prob)
    before = np.concatenate(([0.0], cumulative))[starts]
    running = background_prob[child] + (cumulative - before[child])
    below = np.bincount(child, running < uniforms[child], minlength=uniforms.size)
    parents = np.full(uniforms.size, -1, dtype=np.int64)
    drawn = np.flatnonzero(uniforms >= background_prob)
    position = np.minimum(below[drawn].astype(np.int64), counts[drawn] - 1)
    parents[drawn] = terms.parent[starts[drawn] + position]
    return parents


def gibbs_sample_hawkes(
    sequence: EventSequence,
    n_processes: int,
    rng: np.random.Generator,
    *,
    config: FitConfig | None = None,
    n_samples: int = 200,
    burn_in: int = 50,
    thin: int = 2,
) -> GibbsResult:
    """Run the parent-augmented Gibbs sampler on one sequence.

    Parameters
    ----------
    sequence:
        The observed events.
    n_processes:
        Number of communities ``K``.
    rng:
        Sampling randomness.
    config:
        Priors and kernel, shared with the EM fit.  ``learn_beta`` is
        ignored (the kernel stays fixed, as in the paper's sampler).
    n_samples, burn_in, thin:
        Chain schedule; ``n_samples`` counts *kept* samples.
    """
    if n_samples < 1 or burn_in < 0 or thin < 1:
        raise ValueError("invalid chain schedule")
    config = config or FitConfig()
    kernel: ExponentialKernel = config.kernel
    window = kernel.support_window(config.window_mass)
    k = n_processes
    n = len(sequence)
    processes = sequence.processes
    horizon = sequence.horizon
    counts = sequence.counts(k).astype(np.float64)

    # Initialise rates from the empirical event rates.
    background = np.maximum(counts / horizon, 1e-6) * 0.5
    weights = np.full((k, k), 0.01)

    terms = SequenceTerms([sequence], kernel, k, window)
    exposure = np.bincount(processes, terms.remaining, minlength=k)

    kept_background = []
    kept_weights = []
    kept_parents = []
    total_iterations = burn_in + n_samples * thin
    for iteration in range(total_iterations):
        parents = _draw_parents(terms, background, weights, rng.random(n))
        # Conjugate rate updates given the hard parent assignment.
        caused = parents >= 0
        background_events = np.bincount(processes[~caused], minlength=k)
        edge_events = np.bincount(
            processes[parents[caused]] * k + processes[caused], minlength=k * k
        ).reshape(k, k)
        background = rng.gamma(
            config.background_prior_shape + background_events,
            1.0 / (config.background_prior_rate + horizon),
        )
        weights = rng.gamma(
            config.weight_prior_shape + edge_events,
            1.0 / (config.weight_prior_rate + exposure)[:, None],
        )
        if iteration >= burn_in and (iteration - burn_in) % thin == 0:
            kept_background.append(background.copy())
            kept_weights.append(weights.copy())
            kept_parents.append(parents)

    background_samples = np.array(kept_background)
    weight_samples = np.array(kept_weights)
    n_kept = len(kept_background)
    # Hard roots of every kept sample in one rank sweep, over a stack of
    # the sequence with one group per sample.
    samples = SequenceTerms([sequence] * n_kept, kernel, k)
    drawn = np.concatenate(kept_parents)
    caused = np.flatnonzero(drawn >= 0)
    offsets = np.repeat(np.arange(n_kept) * n, n)
    roots = samples.propagate(
        (drawn < 0).astype(np.float64),
        caused,
        drawn[caused] + offsets[caused],
        np.ones(caused.size),
    )
    root_distribution = roots.reshape(n_kept, n, k).sum(axis=0) / n_kept
    posterior_mean = HawkesModel(
        background=background_samples.mean(axis=0),
        weights=weight_samples.mean(axis=0),
        kernel=kernel,
    )
    return GibbsResult(
        posterior_mean=posterior_mean,
        background_samples=background_samples,
        weight_samples=weight_samples,
        root_distribution=root_distribution,
    )
