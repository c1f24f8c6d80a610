"""Table 8 / Appendix A — DBSCAN threshold sweep.

Paper:

    Distance  #Clusters  %Noise
    2         30,327     82.9%
    4         34,146     78.5%
    6         37,292     73.0%
    8         38,851     62.8%
    10        30,737     27.8%

Shape: noise decreases monotonically with distance; the cluster count
*peaks near distance 8* and drops at 10 (nearby clusters merge).
"""

from benchmarks.conftest import once
from repro.clustering.evaluation import sweep_thresholds
from repro.utils.tables import format_table


def test_table8_threshold_sweep(benchmark, bench_world, write_output):
    image_hashes = bench_world.posts_of("pol").phash
    rows = once(
        benchmark,
        lambda: sweep_thresholds(image_hashes, distances=(2, 4, 6, 8, 10)),
    )
    text = format_table(
        [
            [row.distance, row.n_clusters, f"{100 * row.noise_fraction:.1f}%"]
            for row in rows
        ],
        headers=["Distance", "#Clusters", "%Noise"],
        title="Table 8: /pol/ clustering vs DBSCAN distance",
    )
    write_output("table8_threshold", text)

    noise = [row.noise_fraction for row in rows]
    clusters = [row.n_clusters for row in rows]
    # Noise strictly decreases with the distance threshold.
    assert all(b <= a + 1e-9 for a, b in zip(noise, noise[1:]))
    # Non-monotone cluster count: intermediate thresholds (4-8) yield
    # more clusters than the tight extreme (2, which shatters variants
    # below min_samples), and 10 merges clusters back together.  The
    # paper's peak sits at 8; ours lands at 4-6 — see EXPERIMENTS.md.
    peak = max(clusters[1:4])
    assert peak > clusters[0]
    assert clusters[4] < peak
    # The paper's 60-70% noise band around the operating point d=8.
    assert 0.55 <= noise[3] <= 0.75
