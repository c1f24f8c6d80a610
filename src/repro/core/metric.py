"""The custom inter-cluster distance metric (paper Section 2.3).

``distance(c_i, c_j) = 1 - sum_f w_f * r_f(c_i, c_j)`` over four features:

* ``r_perceptual`` — an exponential decay of the Hamming distance between
  the cluster medoids' pHashes;
* ``r_meme``, ``r_people``, ``r_culture`` — Jaccard similarities of the
  clusters' annotation sets (all matching KYM entries, their people, and
  their cultures).

**Full mode** (both clusters annotated) uses weights (0.4, 0.4, 0.1, 0.1);
**partial mode** (at least one unannotated) relies on perceptual
similarity alone.

A note on Eq. 2: the paper prints ``r = 1 - d / (tau * e^(max/tau))``, but
that expression does not reproduce the values the text derives from it
(τ=1, d=1 → 0.4; τ=64, d=1 → 0.98; near-linear decay at τ=64).  The
function that *does* reproduce every quoted value is ``r = exp(-d / tau)``
— evidently the intended exponential decay — so that is the default here.
The printed variant is the test oracle
``tests/metric_reference.py``; EXPERIMENTS.md records the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.annotation.matcher import ClusterAnnotation
from repro.core.config import MetricWeights
from repro.utils.bitops import hamming_distance

__all__ = [
    "MAX_HAMMING",
    "perceptual_similarity",
    "jaccard",
    "ClusterFeatures",
    "cluster_distance",
    "pairwise_cluster_distances",
]

MAX_HAMMING = 64


def perceptual_similarity(
    d: np.ndarray | float, tau: float = 25.0
) -> np.ndarray | float:
    """Perceptual similarity ``exp(-d / tau)`` of a Hamming score ``d``.

    Reproduces the paper's quoted behaviour: with τ=1 similarity drops to
    ~0.4 at d=1; with τ=64 it decays almost linearly (0.98 at d=1); with
    the operating value τ=25 it stays high up to d≈8 and decays quickly
    after.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < 0) or np.any(d > MAX_HAMMING):
        raise ValueError(f"Hamming scores must lie in [0, {MAX_HAMMING}]")
    out = np.exp(-d / tau)
    return float(out) if out.ndim == 0 else out


def jaccard(a: frozenset | set, b: frozenset | set) -> float:
    """Jaccard index of two sets; empty-vs-empty counts as no similarity.

    Two clusters with no people annotations share no *evidence* of
    depicting the same person, so the feature contributes 0 — this keeps
    the paper's "at most 0.2 when people and culture do not match" bound.
    """
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    union = len(a | b)
    return intersection / union


@dataclass(frozen=True)
class ClusterFeatures:
    """What the metric needs to know about a cluster.

    Build from a :class:`~repro.annotation.matcher.ClusterAnnotation` via
    :meth:`from_annotation`, or directly for unannotated clusters.
    """

    medoid_hash: np.uint64
    meme_names: frozenset[str] = field(default_factory=frozenset)
    people: frozenset[str] = field(default_factory=frozenset)
    cultures: frozenset[str] = field(default_factory=frozenset)
    annotated: bool = False
    label: str = ""

    @classmethod
    def from_annotation(cls, annotation: ClusterAnnotation) -> "ClusterFeatures":
        return cls(
            medoid_hash=annotation.medoid_hash,
            meme_names=annotation.meme_names,
            people=annotation.people,
            cultures=annotation.cultures,
            annotated=True,
            label=annotation.representative,
        )


def cluster_distance(
    a: ClusterFeatures,
    b: ClusterFeatures,
    *,
    weights: MetricWeights | None = None,
    tau: float = 25.0,
) -> float:
    """The custom metric between two clusters (Eq. 1).

    Mode selection follows the paper: full mode when both clusters are
    annotated, partial (perceptual-only) otherwise.
    """
    full_mode = a.annotated and b.annotated
    w = (weights or MetricWeights()) if full_mode else MetricWeights.partial_mode()
    d = hamming_distance(a.medoid_hash, b.medoid_hash)
    similarity = w.perceptual * perceptual_similarity(d, tau)
    if full_mode:
        similarity += w.meme * jaccard(a.meme_names, b.meme_names)
        similarity += w.people * jaccard(a.people, b.people)
        similarity += w.culture * jaccard(a.cultures, b.cultures)
    return float(np.clip(1.0 - similarity, 0.0, 1.0))


def pairwise_cluster_distances(
    features: list[ClusterFeatures],
    *,
    weights: MetricWeights | None = None,
    tau: float = 25.0,
) -> np.ndarray:
    """Symmetric matrix of :func:`cluster_distance` over ``features``.

    The diagonal is 0 by construction (self-distance), as the hierarchy
    and graph analyses require; note that ``cluster_distance(a, a)`` can
    be positive when ``a`` has empty people/culture sets.
    """
    n = len(features)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = cluster_distance(
                features[i], features[j], weights=weights, tau=tau
            )
            matrix[i, j] = matrix[j, i] = value
    return matrix
