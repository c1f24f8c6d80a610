"""Where do memes come from? First-seen origins vs root-cause attribution.

The paper's Section 5 argues that Hawkes attribution "is a far better
approach when compared to simple approaches like looking at the timeline
of specific memes or pHashes".  This module implements both:

* the *naive* origin — the community of a cluster's earliest matched
  post (what a timeline eyeball gives you);
* the *attributed* origin profile — the root-cause distribution of the
  cluster's events under the fitted Hawkes model.

With the synthetic world's planted roots, the two can be scored against
truth (``bench_origins``), quantifying the paper's claim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.communities.models import COMMUNITIES
from repro.core.results import ClusterKey, PipelineResult
from repro.hawkes.model import rows_by_group

__all__ = ["ClusterOrigin", "first_seen_origins", "origin_summary", "score_origin_methods"]

@dataclass(frozen=True)
class ClusterOrigin:
    """The naive (first-seen) origin of one cluster's meme."""

    key: ClusterKey
    community: str
    timestamp: float
    n_posts: int


def first_seen_origins(result: PipelineResult) -> dict[ClusterKey, ClusterOrigin]:
    """Naive origin per annotated cluster: its earliest matched post.

    This is the "look at the timeline" heuristic the paper warns about:
    the first *observed* post need not be the cascade's root (crawling
    gaps, deletion, and cross-posting all reorder the record).
    """
    occurrences = result.occurrences
    origins: dict[ClusterKey, ClusterOrigin] = {}
    # Each cluster's occurrence rows in time order: the first is earliest.
    rows_of = rows_by_group(occurrences.cluster_indices, occurrences.posts.timestamp)
    for index, rows in rows_of.items():
        first = occurrences.posts[rows[0]]
        key = result.cluster_keys[index]
        origins[key] = ClusterOrigin(
            key=key,
            community=first.community,
            timestamp=first.timestamp,
            n_posts=int(rows.size),
        )
    return origins


def origin_summary(
    origins: dict[ClusterKey, ClusterOrigin],
) -> dict[str, int]:
    """Clusters per first-seen origin community."""
    summary: Counter[str] = Counter(o.community for o in origins.values())
    return dict(summary)


def score_origin_methods(world, result: PipelineResult) -> dict[str, float]:
    """Score naive first-seen vs Hawkes attribution against planted truth.

    For each occurrence post with ground truth, the naive method credits
    the cluster's first-seen community; the attribution method is scored
    by the probability mass it places on the post's true root (from
    ``study.per_cluster`` aggregation it is re-derived per event here via
    the expected-events decomposition).

    Returns
    -------
    dict
        ``naive_accuracy`` — fraction of posts whose true root equals
        the cluster's first-seen community; ``attributed_mass`` — mean
        probability the Hawkes attribution puts on true roots
        (aggregate, from the study's expected-events matrix vs truth).
    """
    from repro.analysis.influence import cluster_event_sequences
    from repro.hawkes.attribution import attribute_root_causes
    from repro.hawkes.fit import fit_hawkes_em

    posts = result.occurrences.posts
    indices = result.occurrences.cluster_indices
    rows_of = rows_by_group(indices, posts.timestamp)
    # The first-seen community of every cluster, as a community code.
    naive_code = np.full(len(result.cluster_keys), -1, dtype=np.int8)
    for index, rows in rows_of.items():
        naive_code[index] = posts.community[rows[0]]
    rooted = posts.root_community >= 0
    naive_total = int(rooted.sum())
    naive_hits = int((naive_code[indices[rooted]] == posts.root_community[rooted]).sum())

    # Attribution mass on true roots, per event, over fitted clusters: one
    # stacked fit and one attribution, whose rows are the clusters' posts
    # in time order, cluster after cluster.
    sequences = cluster_event_sequences(
        result, world.config.horizon_days, min_events=10
    )
    mass_total, mass_count = 0.0, 0
    if sequences:
        stack = list(sequences.values())
        fits = fit_hawkes_em(stack, len(COMMUNITIES), pooled=False)
        roots = attribute_root_causes([fit.model for fit in fits], stack)
        key_index = {key: index for index, key in enumerate(result.cluster_keys)}
        rows = np.concatenate([rows_of[key_index[key]] for key in sequences])
        true_roots = posts.root_community[rows]
        events = np.flatnonzero(true_roots >= 0)
        mass_total = float(roots[events, true_roots[events]].sum())
        mass_count = int(events.size)
    return {
        "naive_accuracy": naive_hits / naive_total if naive_total else float("nan"),
        "attributed_mass": mass_total / mass_count if mass_count else float("nan"),
    }
