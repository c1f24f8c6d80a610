"""Clustering (paper Step 3) and cluster geometry.

* :mod:`repro.clustering.dbscan` — from-scratch DBSCAN over Hamming
  neighbourhoods (eps = 8, min_samples = 5 in the paper).
* :mod:`repro.clustering.medoid` — cluster medoids (Step 5 input).
* :mod:`repro.clustering.hierarchy` — from-scratch agglomerative
  clustering + dendrogram used for the meme phylogeny of Fig. 6.
* :mod:`repro.clustering.evaluation` — threshold sweeps (Table 8) and
  cluster purity / false-positive measurement (Fig. 17, Appendix A).
"""

from repro.clustering.dbscan import (
    NOISE,
    DBSCANResult,
    dbscan,
    dbscan_from_neighbors,
    dbscan_images,
)
from repro.clustering.evaluation import (
    ThresholdSweepRow,
    cluster_false_positive_fractions,
    majority_purity,
    sweep_thresholds,
)
from repro.clustering.hierarchy import (
    Dendrogram,
    MergeStep,
    agglomerate,
    cut_dendrogram,
)
from repro.clustering.medoid import cluster_members, medoids_by_cluster

__all__ = [
    "NOISE",
    "DBSCANResult",
    "dbscan",
    "dbscan_from_neighbors",
    "dbscan_images",
    "medoids_by_cluster",
    "cluster_members",
    "agglomerate",
    "cut_dendrogram",
    "Dendrogram",
    "MergeStep",
    "sweep_thresholds",
    "ThresholdSweepRow",
    "cluster_false_positive_fractions",
    "majority_purity",
]
