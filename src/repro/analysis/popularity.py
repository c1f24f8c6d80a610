"""Popularity analyses: Tables 3, 4, 5 and the CDFs of Fig. 5.

Community semantics follow the paper: Table 3 counts *clusters* obtained
from each fringe community; Tables 4/5 count *posts* whose images matched
annotated clusters, with The_Donald folded into Reddit (the paper's
Table 4 columns are /pol/, Reddit, Gab, Twitter).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.annotation.kym import KYMSite
from repro.core.results import PipelineResult

__all__ = [
    "TopEntryRow",
    "top_entries_by_clusters",
    "top_entries_by_posts",
    "entries_per_cluster_counts",
    "clusters_per_entry_counts",
]


@dataclass(frozen=True)
class TopEntryRow:
    """One row of a Table 3/4/5-style ranking."""

    entry: str
    category: str
    count: int
    percent: float
    is_racist: bool = False
    is_politics: bool = False

    def markers(self) -> str:
        """The paper's ``(R)``/``(P)`` row markers."""
        flags = []
        if self.is_racist:
            flags.append("(R)")
        if self.is_politics:
            flags.append("(P)")
        return " ".join(flags)


def _occurrence_communities(
    result: PipelineResult, *, merge_the_donald: bool
) -> np.ndarray:
    communities = result.occurrences.posts.community_names()
    if merge_the_donald:
        communities = np.where(communities == "the_donald", "reddit", communities)
    return communities


def top_entries_by_clusters(
    result: PipelineResult,
    site: KYMSite,
    community: str,
    *,
    n: int = 20,
) -> list[TopEntryRow]:
    """Table 3: top KYM entries by number of annotated clusters.

    Percentages are over all annotated clusters of the community, as in
    the paper's per-community columns.
    """
    keys = result.annotated_clusters_of(community)
    counter = Counter(result.annotations[key].representative for key in keys)
    total = max(len(keys), 1)
    rows = []
    for name, count in counter.most_common(n):
        entry = site[name]
        rows.append(
            TopEntryRow(
                entry=name,
                category=entry.category,
                count=count,
                percent=100.0 * count / total,
                is_racist=entry.is_racist,
                is_politics=entry.is_politics,
            )
        )
    return rows


def top_entries_by_posts(
    result: PipelineResult,
    site: KYMSite,
    community: str,
    *,
    n: int = 20,
    category: str | None = "memes",
    merge_the_donald: bool = True,
) -> list[TopEntryRow]:
    """Tables 4/5: top entries by number of matched posts.

    ``category="memes"`` reproduces Table 4; ``category="people"`` with
    ``n=15`` reproduces Table 5; ``category=None`` ranks everything.
    Percentages are over all of the community's matched posts.
    """
    communities = _occurrence_communities(result, merge_the_donald=merge_the_donald)
    mask = communities == community
    total = max(int(mask.sum()), 1)
    names = [
        name for name, hit in zip(result.occurrences.entry_names, mask) if hit
    ]
    counter = Counter(names)
    rows: list[TopEntryRow] = []
    for name, count in counter.most_common():
        entry = site[name]
        if category is not None and entry.category != category:
            continue
        rows.append(
            TopEntryRow(
                entry=name,
                category=entry.category,
                count=count,
                percent=100.0 * count / total,
                is_racist=entry.is_racist,
                is_politics=entry.is_politics,
            )
        )
        if len(rows) == n:
            break
    return rows


def entries_per_cluster_counts(
    result: PipelineResult, community: str
) -> np.ndarray:
    """Fig. 5(a): number of matching KYM entries per annotated cluster."""
    keys = result.annotated_clusters_of(community)
    return np.array(
        [result.annotations[key].n_entries for key in keys], dtype=np.int64
    )


def clusters_per_entry_counts(
    result: PipelineResult, community: str
) -> np.ndarray:
    """Fig. 5(b): number of clusters annotated by each matched KYM entry.

    Counts *all* matches (not only representative annotations), as the
    paper's Fig. 5(b) does.
    """
    counter: Counter[str] = Counter()
    for key in result.annotated_clusters_of(community):
        for match in result.annotations[key].matches:
            counter[match.entry_name] += 1
    return np.array(sorted(counter.values()), dtype=np.int64)
