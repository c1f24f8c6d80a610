"""Multivariate Hawkes processes for influence estimation (paper Section 5).

The paper models the five communities (/pol/, Twitter, Reddit, The_Donald,
Gab) as a multivariate Hawkes process per meme cluster, fits it with the
Linderman & Adams Gibbs sampler, and introduces a *root-cause attribution*
that propagates an event's cause probabilities through the branching
structure back to the community that originated the cascade.

This package implements the full stack from scratch:

* :mod:`repro.hawkes.kernels` — excitation kernels (exponential).
* :mod:`repro.hawkes.model` — the model, intensities, log-likelihood.
* :mod:`repro.hawkes.simulate` — exact branching simulation (with ground-
  truth parents) and Ogata thinning as a cross-check.
* :mod:`repro.hawkes.terms` — the weight-free terms of the E-step and
  log-likelihood, built once per (sequence, kernel).
* :mod:`repro.hawkes.fit` — MAP-EM over the latent branching structure
  (the deterministic counterpart of the paper's Gibbs sampler: both
  operate on the same parent-attribution augmentation).
* :mod:`repro.hawkes.attribution` — the paper's improved root-cause
  influence estimator.
"""

from repro.hawkes.attribution import (
    InfluenceMatrices,
    attribute_root_causes,
    influence_from_sequences,
)
from repro.hawkes.fit import FitConfig, FitResult, fit_hawkes_em
from repro.hawkes.gibbs import GibbsResult, gibbs_sample_hawkes
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.simulate import SimulationResult, simulate_branching, simulate_thinning

__all__ = [
    "ExponentialKernel",
    "HawkesModel",
    "EventSequence",
    "SimulationResult",
    "simulate_branching",
    "simulate_thinning",
    "FitConfig",
    "FitResult",
    "fit_hawkes_em",
    "GibbsResult",
    "gibbs_sample_hawkes",
    "attribute_root_causes",
    "influence_from_sequences",
    "InfluenceMatrices",
]
