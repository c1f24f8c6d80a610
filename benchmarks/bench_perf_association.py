"""Section 7 (Performance) — association throughput.

Paper: comparing 74M Twitter images against the 12K annotated medoids
took 12 days on two Titan Xp GPUs — 73 images/second.  This bench
measures Step 6 on commodity CPU, a blocked broadcast scan of the
queries against every medoid (``nearest_medoid``), and reports the
equivalent figure.
"""

import time

from repro.annotation.association import associate_hashes
from repro.core.runner import medoid_map
from repro.utils.tables import format_table


def test_perf_association_throughput(
    benchmark, bench_world, bench_pipeline, write_output
):
    medoids = medoid_map(bench_pipeline.annotations, bench_pipeline.cluster_keys)
    hashes = bench_world.posts.phash

    benchmark(lambda: associate_hashes(hashes, medoids, theta=8))
    # Timed here too, so the bound holds with --benchmark-disable, which
    # leaves ``benchmark.stats`` unset.
    started = time.perf_counter()
    associate_hashes(hashes, medoids, theta=8)
    elapsed = time.perf_counter() - started
    throughput = hashes.size / elapsed
    # The scan must beat the paper's brute-force GPU number by orders
    # of magnitude at this scale.
    assert throughput > 1000

    # The recorded table holds what every host reproduces; the timings
    # are printed only.
    text = format_table(
        [
            ["images", hashes.size],
            ["annotated medoids", len(medoids)],
            ["throughput (images/s)", "> 1,000 (asserted)"],
            ["paper (2x Titan Xp, brute force)", "73 images/s"],
        ],
        title="Performance: Step 6 association throughput (blocked scan, CPU)",
    )
    write_output("perf_association", text)
    print(
        format_table(
            [
                ["wall time of one call (s)", f"{elapsed:.3f}"],
                ["throughput (images/s)", f"{throughput:,.0f}"],
            ],
            title="Host timings (not recorded)",
        )
    )
