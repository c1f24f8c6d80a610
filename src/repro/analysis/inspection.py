"""Cluster inspection — the paper's Appendix D, as an API.

The paper showcases individual clusters (Dubs Guy, Nut Button, Goofy's
Time) by listing their member images and annotations.  This module
produces the equivalent structured report for any cluster of a pipeline
run: medoid, membership, annotation evidence, and where the cluster's
meme travelled (per-community occurrence counts).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.results import ClusterKey, PipelineResult
from repro.hashing.phash import phash_to_hex
from repro.utils.tables import format_table

__all__ = ["ClusterReport", "inspect_cluster", "format_cluster_report"]


@dataclass(frozen=True)
class ClusterReport:
    """Everything known about one annotated cluster.

    Attributes
    ----------
    key:
        The cluster's global identity.
    medoid_hex:
        The medoid pHash in the paper's 16-hex-digit form.
    n_unique_hashes, n_images:
        Membership in the clustered fringe community.
    representative:
        The Step 5 label.
    matches:
        All matching KYM entries as ``(name, n_matches, proportion)``.
    occurrences_by_community:
        Step 6 hits per community (where the meme travelled).
    example_image_ids:
        Up to ten image identifiers from the occurrence table.
    is_racist, is_politics:
        Group flags of the representative annotation.
    """

    key: ClusterKey
    medoid_hex: str
    n_unique_hashes: int
    n_images: int
    representative: str
    matches: tuple[tuple[str, int, float], ...]
    occurrences_by_community: dict[str, int]
    example_image_ids: tuple[str, ...]
    is_racist: bool
    is_politics: bool


def inspect_cluster(result: PipelineResult, key: ClusterKey) -> ClusterReport:
    """Build the report for one annotated cluster.

    Raises
    ------
    KeyError
        If ``key`` is not an annotated cluster of ``result``.
    """
    annotation = result.annotations[key]
    clustering = result.clusterings[key.community]
    member_mask = clustering.result.labels == key.cluster_id
    n_unique = int(member_mask.sum())
    n_images = int(clustering.counts[member_mask].sum())

    cluster_index = result.cluster_keys.index(key)
    occurrences = result.occurrences
    posts = occurrences.posts.take(occurrences.cluster_indices == cluster_index)
    by_community = Counter(posts.community_names().tolist())
    examples = list(dict.fromkeys(posts.image_id.tolist()))[:10]

    return ClusterReport(
        key=key,
        medoid_hex=phash_to_hex(annotation.medoid_hash),
        n_unique_hashes=n_unique,
        n_images=n_images,
        representative=annotation.representative,
        matches=tuple(
            (match.entry_name, match.n_matches, match.proportion)
            for match in annotation.matches
        ),
        occurrences_by_community=dict(by_community),
        example_image_ids=tuple(examples),
        is_racist=annotation.is_racist,
        is_politics=annotation.is_politics,
    )


def format_cluster_report(report: ClusterReport) -> str:
    """Render a report as readable text (the Appendix D presentation)."""
    flags = []
    if report.is_racist:
        flags.append("racist")
    if report.is_politics:
        flags.append("politics")
    header = format_table(
        [
            ["cluster", str(report.key)],
            ["medoid pHash", report.medoid_hex],
            ["unique hashes / images", f"{report.n_unique_hashes} / {report.n_images}"],
            ["representative entry", report.representative],
            ["groups", ", ".join(flags) or "neutral"],
        ],
        title=f"Cluster {report.key}",
    )
    matches = format_table(
        [
            [name, n, f"{proportion:.2f}"]
            for name, n, proportion in report.matches
        ],
        headers=["KYM entry", "matches", "proportion"],
        title="Annotation evidence (Step 5)",
    )
    spread = format_table(
        sorted(report.occurrences_by_community.items(), key=lambda kv: -kv[1]),
        headers=["community", "posts"],
        title="Occurrences (Step 6)",
    )
    examples = "Examples: " + (
        ", ".join(report.example_image_ids) if report.example_image_ids else "-"
    )
    return "\n\n".join([header, matches, spread, examples])
