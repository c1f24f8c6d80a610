"""Fig. 17 / Appendix A — per-cluster false-positive fractions.

Paper: at distances 6 and 8 the overall false positives stay below ~3%
of cluster members, while distance 10 "yields a high number of false
positives".  The paper sampled 200 clusters and inspected manually; the
synthetic world knows every image's source template, so the fractions
are computed exactly over *all* clusters.
"""

import numpy as np

from benchmarks.conftest import once
from repro.clustering.dbscan import dbscan_images
from repro.clustering.evaluation import (
    cluster_false_positive_fractions,
    majority_purity,
)
from repro.utils.tables import format_table


def test_fig17_false_positive_cdf(benchmark, bench_world, write_output):
    posts = bench_world.posts_of("pol")
    image_hashes = posts.phash
    # Ground-truth source per unique hash.  Junk-series variants share a
    # series identity (strip the /v<k> suffix); one-off noise images are
    # their own source, which can only hurt purity.
    sources_by_hash = {}
    for post in posts:
        if post.template_name is not None:
            source = post.template_name
        elif post.image_id.startswith("junk/"):
            source = "junk:" + post.image_id.rsplit("/", 1)[0]
        else:
            source = "noise:" + post.image_id
        sources_by_hash[int(post.phash)] = source

    def run():
        results = {}
        for distance in (6, 8, 10):
            result, unique, _ = dbscan_images(image_hashes, eps=distance)
            sources = [sources_by_hash[int(h)] for h in unique]
            counts = np.array(
                [int(np.sum(image_hashes == h)) for h in unique], dtype=np.float64
            )
            fractions = cluster_false_positive_fractions(result.labels, sources)
            image_purity = majority_purity(result.labels, sources, counts)
            results[distance] = (fractions, image_purity)
        return results

    results = once(benchmark, run)
    rows = []
    for distance, (fractions, image_purity) in results.items():
        clean = float(np.mean(fractions == 0)) if fractions.size else 1.0
        rows.append(
            [
                distance,
                len(fractions),
                f"{100 * clean:.0f}%",
                f"{100 * float(fractions.mean()) if fractions.size else 0:.1f}%",
                f"{100 * image_purity:.1f}%",
            ]
        )
    text = format_table(
        rows,
        headers=[
            "distance",
            "clusters",
            "FP-free clusters",
            "mean FP",
            "image purity",
        ],
        title="Fig. 17: cluster false positives vs DBSCAN distance (/pol/)",
    )
    write_output("fig17_false_positives", text)

    mean_fp = {d: (f.mean() if f.size else 0.0) for d, (f, _) in results.items()}
    # Distances 6 and 8 stay clean, as in the paper.
    assert mean_fp[6] <= 0.10
    assert mean_fp[8] <= 0.12
    # Image-weighted purity at the operating point stays high (the
    # paper's true-positive-over-posts measure was 99.4%) and degrades
    # monotonically as the threshold loosens toward 10.
    assert results[8][1] >= 0.75
    assert results[6][1] >= results[8][1] >= results[10][1]
