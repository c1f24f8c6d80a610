"""Typed results of the pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.annotation.matcher import ClusterAnnotation
from repro.clustering.dbscan import NOISE, DBSCANResult
from repro.communities.models import PostTable
from repro.core.cache import CacheStats

__all__ = [
    "ClusterKey",
    "CommunityClustering",
    "OccurrenceTable",
    "PipelineResult",
    "StageReport",
]


@dataclass
class StageReport:
    """What one runner stage did: outcome, effort, and fault handling.

    Attributes
    ----------
    name:
        Stage name (``cluster``, ``screenshot-filter``, ``annotate``,
        ``associate``).
    status:
        ``"completed"`` (ran clean), ``"degraded"`` (finished via
        fallback/quarantine), or ``"failed"``.
    attempts:
        Work-item executions including retries.
    duration_s:
        Wall time of the stage, cache I/O included.
    fallbacks:
        Degradation-ladder steps taken, e.g. ``"classifier->oracle"``.
    quarantined:
        Items isolated after permanent failure, e.g. ``"cluster:pol"``.
    error:
        Message of the error that triggered degradation, if any.
    notes:
        Free-form diagnostics (retry info).
    cached:
        Whether the stage's output came entirely from the content cache
        (every lookup hit and no delta work ran): a warm re-run, or a
        re-run after a crash, reuses *content-addressed* results from
        any previous run over the same inputs.
    cache_stats:
        This stage's slice of the content cache's activity
        (hits/misses/deltas), when the runner had a cache.
    """

    name: str
    status: str = "completed"
    attempts: int = 0
    duration_s: float = 0.0
    fallbacks: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    error: str | None = None
    notes: list[str] = field(default_factory=list)
    cached: bool = False
    cache_stats: CacheStats | None = None

    def summary(self) -> str:
        """One-line human-readable digest (CLI output)."""
        parts = [f"{self.name}: {self.status}"]
        parts.append(f"attempts={self.attempts}")
        parts.append(f"{self.duration_s:.2f}s")
        if self.cached:
            parts.append("cached")
        if self.cache_stats is not None and (
            self.cache_stats.hits
            or self.cache_stats.misses
            or self.cache_stats.errors
        ):
            parts.append(f"cache[{self.cache_stats.summary()}]")
        if self.fallbacks:
            parts.append("fallbacks=" + ",".join(self.fallbacks))
        if self.quarantined:
            parts.append("quarantined=" + ",".join(self.quarantined))
        if self.error:
            parts.append(f"error={self.error}")
        return "  ".join(parts)


class ClusterKey(NamedTuple):
    """Global identity of a cluster: fringe community + local cluster id."""

    community: str
    cluster_id: int

    def __str__(self) -> str:
        return f"{self.community}:{self.cluster_id}"


@dataclass(frozen=True)
class CommunityClustering:
    """Steps 2-3 output for one fringe community.

    Attributes
    ----------
    community:
        The fringe community clustered.
    unique_hashes:
        The deduplicated pHashes the clustering ran over.
    counts:
        Image multiplicity per unique hash.
    result:
        DBSCAN labels/cores over ``unique_hashes``.
    medoids:
        ``{cluster_id: medoid pHash}``.
    n_images:
        Total images (sum of ``counts``).
    """

    community: str
    unique_hashes: np.ndarray
    counts: np.ndarray
    result: DBSCANResult
    medoids: dict[int, np.uint64]

    @property
    def n_images(self) -> int:
        return int(self.counts.sum())

    @property
    def n_clusters(self) -> int:
        return self.result.n_clusters

    @property
    def image_noise_fraction(self) -> float:
        """Fraction of *images* labelled noise (Table 2's noise column)."""
        if self.n_images == 0:
            return 0.0
        noise_images = int(self.counts[self.result.labels == NOISE].sum())
        return noise_images / self.n_images


@dataclass(frozen=True)
class OccurrenceTable:
    """Flat table of meme occurrences (Step 6 output), column-oriented.

    One row per post whose image matched an annotated cluster: the
    matched rows of the post table, plus aligned per-occurrence columns
    for cheap group-bys in the analysis layer.
    """

    posts: PostTable
    cluster_indices: np.ndarray  # index into PipelineResult.cluster_keys
    entry_names: list[str]  # representative KYM entry per occurrence
    is_racist: np.ndarray
    is_politics: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.posts)
        if not (
            len(self.cluster_indices)
            == len(self.entry_names)
            == len(self.is_racist)
            == len(self.is_politics)
            == n
        ):
            raise ValueError("occurrence columns must be aligned")

    def __len__(self) -> int:
        return len(self.posts)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the Step 1-7 run produced.

    Attributes
    ----------
    clusterings:
        Per fringe community, the Steps 2-3 output.
    annotations:
        Per cluster key, the Step 5 annotation (annotated clusters only).
    cluster_keys:
        Global ordering of annotated clusters; ``occurrences``'s
        ``cluster_indices`` point into this list.
    occurrences:
        The Step 6 association table over every community's posts.
    screenshot_report:
        Step 4 evaluation metrics when the classifier ran, else ``None``.
    stage_reports:
        Per-stage :class:`StageReport` records when the run went through
        the staged runner; empty for directly-assembled results.
    """

    clusterings: dict[str, CommunityClustering]
    annotations: dict[ClusterKey, ClusterAnnotation]
    cluster_keys: list[ClusterKey]
    occurrences: OccurrenceTable
    screenshot_report: object | None = None
    stage_reports: list[StageReport] = field(default_factory=list)
    _key_index: dict[ClusterKey, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_key_index",
            {key: i for i, key in enumerate(self.cluster_keys)},
        )

    def annotated_clusters_of(self, community: str) -> list[ClusterKey]:
        """Annotated cluster keys originating from one fringe community."""
        return [key for key in self.cluster_keys if key.community == community]

    def n_annotated(self, community: str | None = None) -> int:
        if community is None:
            return len(self.cluster_keys)
        return len(self.annotated_clusters_of(community))

    def stage_report(self, name: str) -> StageReport | None:
        """The report of one runner stage, or ``None`` if absent."""
        for report in self.stage_reports:
            if report.name == name:
                return report
        return None

    @property
    def degraded(self) -> bool:
        """Whether any stage finished via fallback or quarantine."""
        return any(report.status == "degraded" for report in self.stage_reports)
