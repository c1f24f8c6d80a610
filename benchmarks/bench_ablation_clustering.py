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
"""

import numpy as np

from benchmarks.conftest import once
from repro.clustering.dbscan import NOISE, dbscan
from repro.clustering.evaluation import majority_purity
from repro.clustering.leader import leader_cluster
from repro.utils.tables import format_table


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
