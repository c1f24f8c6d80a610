"""Influence estimation over pipeline results: Table 7 and Figs. 11-16.

The paper fits one Hawkes model per annotated meme cluster (events = the
cluster's matched posts across the five communities), attributes every
event's root cause through the branching structure, and aggregates:

* Fig. 11 — influence as percent of the destination's events;
* Fig. 12 — influence normalised by the source's events (efficiency);
* Figs. 13/14 — the same split into racist/non-racist and
  political/non-political clusters, with two-sample KS tests marking
  significant differences;
* Figs. 15/16 — the normalised versions of the splits.

Because the synthetic world generated meme adoption from a *known*
Hawkes process, :func:`ground_truth_influence` computes the exact answer
from the generator's latent root communities, letting tests check that
the estimator recovers the planted structure — something the paper could
not do on crawled data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.stats import ks_two_sample
from repro.communities.models import COMMUNITIES
from repro.core.results import ClusterKey, PipelineResult
from repro.hawkes.attribution import (
    InfluenceMatrices,
    attribute_root_causes,
    root_cause_influence,
)
from repro.hawkes.fit import FitConfig, fit_hawkes_em
from repro.hawkes.model import EventSequence, rows_by_group

__all__ = [
    "InfluenceStudy",
    "cluster_event_sequences",
    "fit_cluster_shard",
    "influence_study",
    "ground_truth_influence",
    "ks_significance_matrix",
]

def cluster_event_sequences(
    result: PipelineResult,
    horizon: float,
    *,
    min_events: int = 5,
) -> dict[ClusterKey, EventSequence]:
    """One event sequence per annotated cluster (the paper's unit of fit).

    Events are the cluster's matched posts on all five communities;
    clusters with fewer than ``min_events`` are skipped (too little
    signal for a stable fit).
    """
    posts = result.occurrences.posts
    return {
        result.cluster_keys[index]: EventSequence(
            posts.timestamp[rows], posts.community[rows], horizon
        )
        for index, rows in rows_by_group(
            result.occurrences.cluster_indices, posts.timestamp
        ).items()
        if rows.size >= min_events
    }


@dataclass(frozen=True)
class InfluenceStudy:
    """Fitted influence, overall and per analysis group.

    ``per_cluster`` holds each cluster's own matrices; the group
    aggregates are sums over the member clusters.  ``failures`` maps
    clusters whose Hawkes fit raised to the error message — they are
    excluded from every aggregate instead of sinking the study.
    """

    total: InfluenceMatrices
    per_cluster: dict[ClusterKey, InfluenceMatrices]
    groups: dict[str, InfluenceMatrices]
    failures: dict[ClusterKey, str] = field(default_factory=dict)

    def group(self, name: str) -> InfluenceMatrices:
        return self.groups[name]

    def event_counts(self) -> np.ndarray:
        """Table 7: events per community across all fitted clusters."""
        return self.total.event_counts


def fit_cluster_shard(
    sequences: list[EventSequence],
    n_processes: int,
    fit_config: FitConfig | None = None,
) -> list[tuple[str, InfluenceMatrices | str]]:
    """Fit a stack of clusters in one Hawkes EM and attribute their
    root causes: the work of :func:`influence_study`.

    One pathological cluster (degenerate timestamps, singular EM update)
    must not sink the study, so failure is part of the return value:
    per cluster, ``("ok", matrices)`` or ``("error", message)``.  A stack
    whose fit or attribution raises is bisected until the failing
    clusters are alone, and a cluster whose fit leaves a non-finite
    ``mu`` or ``W`` fails on its own.  A cluster's results do not depend
    on the rest of its stack, so the others are unchanged.
    """
    try:
        fits = fit_hawkes_em(sequences, n_processes, fit_config, pooled=False)
        roots = attribute_root_causes([fit.model for fit in fits], sequences)
        matrices = root_cause_influence(sequences, roots, n_processes)
    except Exception as error:
        if len(sequences) == 1:
            return [("error", f"{type(error).__name__}: {error}")]
        half = len(sequences) // 2
        return fit_cluster_shard(
            sequences[:half], n_processes, fit_config
        ) + fit_cluster_shard(sequences[half:], n_processes, fit_config)
    return [
        ("ok", cluster)
        if np.isfinite(fit.model.background).all()
        and np.isfinite(fit.model.weights).all()
        else ("error", "FloatingPointError: non-finite Hawkes parameters")
        for fit, cluster in zip(fits, matrices)
    ]


def influence_study(
    result: PipelineResult,
    horizon: float,
    *,
    fit_config: FitConfig | None = None,
    min_events: int = 5,
) -> InfluenceStudy:
    """Fit per-cluster Hawkes models and aggregate root-cause influence.

    Every cluster is fitted in one stacked EM; a cluster's results do
    not depend on the rest of the stack, and the aggregation runs in the
    deterministic cluster order.
    """
    sequences = cluster_event_sequences(result, horizon, min_events=min_events)
    k = len(COMMUNITIES)
    keys = list(sequences)
    stack = list(sequences.values())
    outcomes = fit_cluster_shard(stack, k, fit_config) if stack else []
    per_cluster: dict[ClusterKey, InfluenceMatrices] = {}
    total = InfluenceMatrices.zeros(k)
    groups = {
        name: InfluenceMatrices.zeros(k)
        for name in ("racist", "non_racist", "politics", "non_politics")
    }
    failures: dict[ClusterKey, str] = {}
    for key, (status, value) in zip(keys, outcomes):
        if status == "error":
            failures[key] = value
            continue
        per_cluster[key] = value
        total = total + value
        annotation = result.annotations[key]
        groups["racist" if annotation.is_racist else "non_racist"] += value
        groups["politics" if annotation.is_politics else "non_politics"] += value
    return InfluenceStudy(
        total=total,
        per_cluster=per_cluster,
        groups=groups,
        failures=failures,
    )


def ground_truth_influence(world, *, group: str | None = None) -> InfluenceMatrices:
    """Exact influence from the generator's latent root communities.

    ``group`` restricts to posts of memes carrying one analysis tag
    (``"racist"``, ``"politics"``) or its complement with a ``"non_"``
    prefix — the ground truth behind Figs. 13-16.  Tags follow the same
    semantics as the cluster annotations (an entry can be both).
    """
    wanted = None
    complement = False
    if group is not None:
        complement = group.startswith("non_")
        wanted = group.removeprefix("non_")
        if wanted not in ("racist", "politics"):
            raise ValueError(f"unknown group {group!r}")
    posts = world.posts
    keep = posts.root_community >= 0
    if wanted is not None:
        names, inverse = np.unique(
            posts.template_name[keep].astype(str), return_inverse=True
        )
        entries = [world.catalog_entry(name) for name in names.tolist()]
        in_group = np.array(
            [
                entry.is_racist if wanted == "racist" else entry.is_politics
                for entry in entries
            ],
            dtype=bool,
        )
        keep[keep] = in_group[inverse] != complement
    k = len(COMMUNITIES)
    sources = posts.root_community[keep].astype(np.intp)
    destinations = posts.community[keep].astype(np.intp)
    expected = np.zeros((k, k))
    np.add.at(expected, (sources, destinations), 1.0)
    counts = np.bincount(destinations, minlength=k).astype(np.int64)
    return InfluenceMatrices(expected_events=expected, event_counts=counts)


def ks_significance_matrix(
    study: InfluenceStudy,
    result: PipelineResult,
    group: str,
    *,
    mode: str = "percent_of_destination",
) -> np.ndarray:
    """Per-cell KS p-values between group and complement clusters.

    Reproduces the significance stars of Figs. 13-16: for each
    (source, destination) cell, the distribution of per-cluster influence
    values among ``group`` clusters is compared with the complement.
    Cells without enough data are ``NaN``.
    """
    if group not in ("racist", "politics"):
        raise ValueError(f"unknown group {group!r}")
    in_group = {
        key
        for key in study.per_cluster
        if getattr(result.annotations[key], f"is_{group}")
    }
    k = len(COMMUNITIES)
    p_values = np.full((k, k), np.nan)
    values_in = {cell: [] for cell in np.ndindex(k, k)}
    values_out = {cell: [] for cell in np.ndindex(k, k)}
    for key, matrices in study.per_cluster.items():
        if mode == "percent_of_destination":
            matrix = matrices.percent_of_destination()
        elif mode == "normalized_by_source":
            matrix = matrices.normalized_by_source()
        else:
            raise ValueError(f"unknown mode {mode!r}")
        bucket = values_in if key in in_group else values_out
        for cell in np.ndindex(k, k):
            value = matrix[cell]
            if np.isfinite(value) and matrices.event_counts[cell[1]] > 0:
                bucket[cell].append(float(value))
    for cell in np.ndindex(k, k):
        a, b = values_in[cell], values_out[cell]
        if len(a) >= 3 and len(b) >= 3:
            _, p_values[cell] = ks_two_sample(np.array(a), np.array(b))
    return p_values
