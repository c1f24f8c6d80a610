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
from repro.hawkes.model import EventSequence
from repro.utils.parallel import (
    ExecutionReport,
    Executor,
    ParallelConfig,
    resolve_parallel,
)

__all__ = [
    "InfluenceStudy",
    "cluster_event_sequences",
    "fit_cluster_influence",
    "influence_study",
    "ground_truth_influence",
    "ks_significance_matrix",
]

_COMMUNITY_INDEX = {name: k for k, name in enumerate(COMMUNITIES)}


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
    times: dict[int, list[float]] = {}
    procs: dict[int, list[int]] = {}
    for post, cluster_index in zip(
        result.occurrences.posts, result.occurrences.cluster_indices
    ):
        times.setdefault(int(cluster_index), []).append(post.timestamp)
        procs.setdefault(int(cluster_index), []).append(
            _COMMUNITY_INDEX[post.community]
        )
    sequences: dict[ClusterKey, EventSequence] = {}
    for cluster_index, t in times.items():
        if len(t) < min_events:
            continue
        key = result.cluster_keys[cluster_index]
        sequences[key] = EventSequence.from_unsorted(
            np.array(t), np.array(procs[cluster_index]), horizon
        )
    return sequences


@dataclass(frozen=True)
class InfluenceStudy:
    """Fitted influence, overall and per analysis group.

    ``per_cluster`` holds each cluster's own matrices; the group
    aggregates are sums over the member clusters.  ``failures`` maps
    clusters whose Hawkes fit raised to the error message — they are
    excluded from every aggregate instead of sinking the study.
    ``execution`` carries the supervised executor's per-shard report
    when the fits ran under a parallel config (``None`` on the plain
    serial path).
    """

    total: InfluenceMatrices
    per_cluster: dict[ClusterKey, InfluenceMatrices]
    groups: dict[str, InfluenceMatrices]
    failures: dict[ClusterKey, str] = field(default_factory=dict)
    execution: ExecutionReport | None = None

    def group(self, name: str) -> InfluenceMatrices:
        return self.groups[name]

    def event_counts(self) -> np.ndarray:
        """Table 7: events per community across all fitted clusters."""
        return self.total.event_counts


def fit_cluster_influence(
    sequence: EventSequence,
    n_processes: int,
    fit_config: FitConfig | None = None,
) -> tuple[str, InfluenceMatrices | str]:
    """Fit one cluster's Hawkes model and attribute its root causes.

    The per-cluster work item of :func:`influence_study`, extracted to
    module level so process workers can run it on pickled sequences.
    One pathological cluster (degenerate timestamps, singular EM update)
    must not sink the whole study, so failure is part of the return
    value rather than an exception: ``("ok", matrices)`` on success,
    ``("error", message)`` on failure — mirroring the staged runner's
    quarantine semantics.
    """
    try:
        fit = fit_hawkes_em([sequence], n_processes, fit_config)
        roots = attribute_root_causes(fit.model, sequence)
    except Exception as error:
        return ("error", f"{type(error).__name__}: {error}")
    return ("ok", root_cause_influence(sequence, roots, n_processes))


def influence_study(
    result: PipelineResult,
    horizon: float,
    *,
    fit_config: FitConfig | None = None,
    min_events: int = 5,
    parallel: ParallelConfig | None = None,
) -> InfluenceStudy:
    """Fit per-cluster Hawkes models and aggregate root-cause influence.

    ``parallel`` fans the independent per-cluster fits out across
    workers; the aggregation below always runs in the parent in the
    deterministic cluster order, so totals and group sums are
    bit-identical for any worker count.
    """
    sequences = cluster_event_sequences(result, horizon, min_events=min_events)
    k = len(COMMUNITIES)
    parallel = resolve_parallel(parallel)
    keys = list(sequences)
    execution: ExecutionReport | None = None
    if parallel.is_serial:
        outcomes = [
            fit_cluster_influence(sequences[key], k, fit_config) for key in keys
        ]
    else:
        # Per-cluster fits are atomic (nothing to bisect); a fit that
        # fails the whole rescue ladder quarantines into ``failures``
        # alongside the in-band ("error", message) outcomes.
        sup = Executor(parallel).supervised_starmap(
            fit_cluster_influence,
            [(sequences[key], k, fit_config) for key in keys],
        )
        execution = sup.report
        outcomes = [
            outcome
            if outcome is not None
            else ("error", "quarantined: shard failed the supervision ladder")
            for outcome in sup.results
        ]
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
        matrices = value
        per_cluster[key] = matrices
        total = total + matrices
        annotation = result.annotations[key]
        groups["racist" if annotation.is_racist else "non_racist"] += matrices
        groups[
            "politics" if annotation.is_politics else "non_politics"
        ] += matrices
    return InfluenceStudy(
        total=total,
        per_cluster=per_cluster,
        groups=groups,
        failures=failures,
        execution=execution,
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
    k = len(COMMUNITIES)
    expected = np.zeros((k, k))
    counts = np.zeros(k, dtype=np.int64)
    for post in world.posts:
        if post.root_community is None:
            continue
        if wanted is not None:
            entry = world.catalog_entry(post.template_name)
            in_group = entry.is_racist if wanted == "racist" else entry.is_politics
            if in_group == complement:
                continue
        destination = _COMMUNITY_INDEX[post.community]
        counts[destination] += 1
        expected[_COMMUNITY_INDEX[post.root_community], destination] += 1.0
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
    if group == "racist":
        in_group = {
            key
            for key in study.per_cluster
            if result.annotations[key].is_racist
        }
    elif group == "politics":
        in_group = {
            key
            for key in study.per_cluster
            if result.annotations[key].is_politics
        }
    else:
        raise ValueError(f"unknown group {group!r}")
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
