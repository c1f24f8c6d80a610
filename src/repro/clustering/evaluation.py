"""Clustering evaluation: threshold sweeps and false-positive measurement.

Reproduces Appendix A of the paper:

* **Table 8** — number of clusters and noise percentage as the DBSCAN
  distance threshold varies over {2, 4, 6, 8, 10}.
* **Figure 17** — the CDF of the per-cluster false-positive fraction at
  distances 6/8/10.  The paper estimated false positives by manual
  inspection of 200 random clusters; the synthetic world has ground truth
  (every image knows which template produced it), so the fraction is
  computed exactly: a member is a false positive when its source template
  differs from the cluster's majority template.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.dbscan import NOISE, DBSCANResult, dbscan_images
from repro.clustering.medoid import cluster_members

__all__ = [
    "ThresholdSweepRow",
    "sweep_thresholds",
    "cluster_false_positive_fractions",
    "majority_purity",
]


@dataclass(frozen=True)
class ThresholdSweepRow:
    """One row of Table 8 (noise measured over *images*, as in the paper)."""

    distance: int
    n_clusters: int
    noise_fraction: float
    result: DBSCANResult
    image_labels: np.ndarray


def sweep_thresholds(
    image_hashes: np.ndarray,
    distances: tuple[int, ...] = (2, 4, 6, 8, 10),
    *,
    min_samples: int = 5,
) -> list[ThresholdSweepRow]:
    """Run DBSCAN at each distance and collect Table 8 statistics.

    ``image_hashes`` is the image multiset (duplicates included); noise
    percentages are fractions of images, matching Table 8.
    """
    rows = []
    for distance in distances:
        result, _, image_labels = dbscan_images(
            image_hashes, eps=distance, min_samples=min_samples
        )
        noise = float(np.mean(image_labels == NOISE)) if image_labels.size else 0.0
        rows.append(
            ThresholdSweepRow(
                distance=int(distance),
                n_clusters=result.n_clusters,
                noise_fraction=noise,
                result=result,
                image_labels=image_labels,
            )
        )
    return rows


def cluster_false_positive_fractions(
    labels: np.ndarray,
    true_sources: np.ndarray | list[str],
    *,
    min_cluster_size: int = 2,
) -> np.ndarray:
    """Per-cluster false-positive fraction against ground-truth sources.

    Parameters
    ----------
    labels:
        DBSCAN labels (noise ignored).
    true_sources:
        Aligned array of ground-truth identities (template names); images
        that are one-off noise should carry a unique or sentinel source.
    min_cluster_size:
        Skip clusters smaller than this (a singleton is trivially pure).

    Returns
    -------
    numpy.ndarray
        One fraction in [0, 1] per qualifying cluster.
    """
    sources = np.asarray(true_sources, dtype=object)
    labels = np.asarray(labels)
    if sources.shape != labels.shape:
        raise ValueError("labels and true_sources must be aligned")
    fractions = []
    for _, indices in cluster_members(labels).items():
        if indices.size < min_cluster_size:
            continue
        members = sources[indices]
        values, counts = np.unique(members.astype(str), return_counts=True)
        majority = counts.max()
        fractions.append(1.0 - majority / indices.size)
    return np.array(fractions, dtype=np.float64)


def majority_purity(
    labels: np.ndarray,
    true_sources: np.ndarray | list[str],
    weights: np.ndarray | None = None,
) -> float:
    """Fraction of clustered items belonging to their cluster's majority.

    ``weights`` (e.g. per-hash image counts) computes the *image*-level
    purity — the paper's "percentage of true positives over the set of
    false positives and true positives is 99.4%" measures exactly this
    over posts.
    """
    sources = np.asarray(true_sources, dtype=object)
    labels = np.asarray(labels)
    if weights is None:
        weights = np.ones(labels.shape, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != labels.shape:
            raise ValueError("weights must align with labels")
    total = 0.0
    correct = 0.0
    for _, indices in cluster_members(labels).items():
        members = sources[indices].astype(str)
        member_weights = weights[indices]
        values = np.unique(members)
        mass = np.array(
            [member_weights[members == value].sum() for value in values]
        )
        total += float(member_weights.sum())
        correct += float(mass.max())
    return correct / total if total else 1.0
