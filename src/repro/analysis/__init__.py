"""Analyses over pipeline results (paper Section 4-5).

Each module maps to a slice of the paper's evaluation:

* :mod:`repro.analysis.stats` — CDFs, Fleiss' kappa, KS tests.
* :mod:`repro.analysis.popularity` — Tables 3/4/5, Fig. 5.
* :mod:`repro.analysis.temporal` — Fig. 8.
* :mod:`repro.analysis.scores` — Fig. 9.
* :mod:`repro.analysis.subreddits` — Table 6.
* :mod:`repro.analysis.graph` — Fig. 7 (cluster graph, component purity).
* :mod:`repro.analysis.phylogeny` — Fig. 6 (dendrograms).
* :mod:`repro.analysis.influence` — Table 7, Figs. 11-16.
"""

from repro.analysis.graph import GraphSummary, build_cluster_graph, component_purity
from repro.analysis.inspection import (
    ClusterReport,
    format_cluster_report,
    inspect_cluster,
)
from repro.analysis.influence import (
    InfluenceStudy,
    cluster_event_sequences,
    fit_cluster_shard,
    ground_truth_influence,
    influence_study,
    ks_significance_matrix,
)
from repro.analysis.origins import (
    ClusterOrigin,
    first_seen_origins,
    origin_summary,
    score_origin_methods,
)
from repro.analysis.phylogeny import family_dendrogram
from repro.analysis.popularity import (
    clusters_per_entry_counts,
    entries_per_cluster_counts,
    top_entries_by_clusters,
    top_entries_by_posts,
)
from repro.analysis.scores import score_summary, scores_by_group
from repro.analysis.stats import ecdf, fleiss_kappa, ks_two_sample
from repro.analysis.subreddits import top_subreddits
from repro.analysis.temporal import daily_meme_share

__all__ = [
    "ecdf",
    "fleiss_kappa",
    "ks_two_sample",
    "top_entries_by_clusters",
    "top_entries_by_posts",
    "entries_per_cluster_counts",
    "clusters_per_entry_counts",
    "daily_meme_share",
    "scores_by_group",
    "score_summary",
    "top_subreddits",
    "build_cluster_graph",
    "component_purity",
    "GraphSummary",
    "family_dendrogram",
    "ClusterReport",
    "inspect_cluster",
    "format_cluster_report",
    "ClusterOrigin",
    "first_seen_origins",
    "origin_summary",
    "score_origin_methods",
    "cluster_event_sequences",
    "influence_study",
    "fit_cluster_shard",
    "ground_truth_influence",
    "InfluenceStudy",
    "ks_significance_matrix",
]
