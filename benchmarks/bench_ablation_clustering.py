"""Ablation — DBSCAN vs single-pass leader clustering.

The paper chose a density-based algorithm because it "can discover
clusters of arbitrary shape" — meme variants form elongated chains in
Hamming space (template -> variants -> jittered reposts), and tracking
a meme requires following the whole chain.  This bench quantifies the
trade-off on the /pol/ image multiset: leader clustering's fixed-radius
balls are very pure but *shatter* each meme into several fragments
(inflating the cluster count ~3x and leaving more images unclustered),
whereas DBSCAN's density chaining consolidates variants into one
cluster per meme group at a small purity cost.

:func:`leader_cluster` is the baseline: each hash joins the first
*leader* within ``eps``, else becomes a new leader.  It is
order-dependent and has no density requirement.
"""

import numpy as np

from benchmarks.conftest import once
from repro.clustering.dbscan import NOISE, DBSCANResult, dbscan
from repro.clustering.evaluation import majority_purity
from repro.utils.bitops import hamming_to_many
from repro.utils.tables import format_table


def leader_cluster(
    hashes: np.ndarray,
    *,
    eps: int = 8,
    min_cluster_size: int = 1,
    counts: np.ndarray | None = None,
) -> DBSCANResult:
    """Single-pass leader clustering over 64-bit hashes.

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array, processed in order.
    eps:
        Maximum Hamming distance to a leader (inclusive).
    min_cluster_size:
        Clusters whose total weight falls below this are relabelled as
        noise (-1), mirroring DBSCAN's ``min_samples`` role loosely.
    counts:
        Optional per-hash image multiplicity (weights the size filter).

    Returns
    -------
    DBSCANResult
        Labels (noise = -1) and a core mask marking the leaders.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if min_cluster_size < 1:
        raise ValueError("min_cluster_size must be >= 1")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    n = hashes.size
    if counts is None:
        counts = np.ones(n, dtype=np.int64)
    else:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (n,):
            raise ValueError("counts must align with hashes")
    labels = np.full(n, -1, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return DBSCANResult(labels=labels, core_mask=core_mask)

    leader_hashes: list[int] = []
    leader_positions: list[int] = []
    for position in range(n):
        value = int(hashes[position])
        if leader_hashes:
            distances = hamming_to_many(
                np.uint64(value), np.array(leader_hashes, dtype=np.uint64)
            )
            best = int(np.argmin(distances))
            if distances[best] <= eps:
                labels[position] = best
                continue
        leader_hashes.append(value)
        leader_positions.append(position)
        labels[position] = len(leader_hashes) - 1
        core_mask[position] = True

    # Size filter + label compaction.
    weights = np.zeros(len(leader_hashes), dtype=np.int64)
    for position in range(n):
        weights[labels[position]] += counts[position]
    keep = weights >= min_cluster_size
    remap = np.full(len(leader_hashes), -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    new_labels = np.where(labels >= 0, remap[labels], -1)
    new_core = core_mask.copy()
    for index, position in enumerate(leader_positions):
        if not keep[index]:
            new_core[position] = False
    return DBSCANResult(labels=new_labels, core_mask=new_core)



def test_ablation_clustering_algorithms(benchmark, bench_world, write_output):
    posts = bench_world.posts_of("pol")
    image_hashes = posts.phash
    unique, counts = np.unique(image_hashes, return_counts=True)
    sources_by_hash = {}
    for post in posts:
        if post.template_name is not None:
            source = post.template_name
        elif post.image_id.startswith("junk/"):
            source = "junk:" + post.image_id.rsplit("/", 1)[0]
        else:
            source = "noise:" + post.image_id
        sources_by_hash[int(post.phash)] = source
    sources = [sources_by_hash[int(h)] for h in unique]
    weights = counts.astype(np.float64)

    def run():
        outcomes = {}
        for name, cluster in (
            ("dbscan", lambda: dbscan(unique, eps=8, min_samples=5, counts=counts)),
            (
                "leader",
                lambda: leader_cluster(
                    unique, eps=8, min_cluster_size=5, counts=counts
                ),
            ),
        ):
            result = cluster()
            noise_images = float(
                counts[result.labels == NOISE].sum() / counts.sum()
            )
            # Fraction of clustered image mass that is one-off noise
            # (one-offs in clusters = spurious groupings).
            clustered = result.labels != NOISE
            clustered_mass = float(counts[clustered].sum()) or 1.0
            noise_in_clusters = float(
                sum(
                    c
                    for h, c, keep in zip(unique, counts, clustered)
                    if keep and sources_by_hash[int(h)].startswith("noise:")
                )
            )
            purity = majority_purity(result.labels, sources, weights)
            outcomes[name] = (
                result.n_clusters,
                noise_images,
                noise_in_clusters / clustered_mass,
                purity,
            )
        return outcomes

    outcomes = once(benchmark, run)
    text = format_table(
        [
            [
                name,
                n_clusters,
                f"{100 * noise:.1f}%",
                f"{100 * leaked:.1f}%",
                f"{100 * purity:.1f}%",
            ]
            for name, (n_clusters, noise, leaked, purity) in outcomes.items()
        ],
        headers=["algorithm", "clusters", "image noise", "one-offs clustered", "purity"],
        title="Ablation: DBSCAN vs leader clustering (/pol/, eps=8)",
    )
    write_output("ablation_clustering", text)

    dbscan_stats = outcomes["dbscan"]
    leader_stats = outcomes["leader"]
    # Leader's fixed-radius balls shatter variant chains: far more
    # clusters for the same memes (the fragmentation the paper avoids
    # by chaining "clusters of arbitrary shape").
    assert leader_stats[0] > 1.5 * dbscan_stats[0]
    # DBSCAN's chaining recovers more meme images from the noise pile.
    assert dbscan_stats[1] <= leader_stats[1] + 1e-9
    # Both remain usably pure; leader's tight balls are purer by
    # construction.
    assert dbscan_stats[3] >= 0.75
