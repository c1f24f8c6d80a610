"""Ablation — Hamming radius-search strategy.

The paper's Step 2 ran all-pairs comparisons on two GPUs.  At laptop
scale the choice is between brute-force matrices, a BK-tree, and
multi-index hashing; this bench times all three on the bench world's
/pol/ hashes and checks they agree, justifying MIH as the default for
large collections.
"""

import time

import numpy as np

from benchmarks.conftest import once
from repro.hashing.index import (
    BKTree,
    MultiIndexHash,
    NeighborGraph,
    _dense_pairs,
)
from repro.utils.tables import format_table


def test_ablation_radius_search(benchmark, bench_world, write_output):
    hashes = bench_world.unique_hashes_of("pol")
    queries = hashes[:: max(len(hashes) // 300, 1)][:300]
    radius = 8

    def run():
        timings = {}
        start = time.perf_counter()
        mih = MultiIndexHash(hashes)
        timings["mih build"] = time.perf_counter() - start
        start = time.perf_counter()
        mih_results = [
            frozenset(i for i, _ in mih.query(int(q), radius)) for q in queries
        ]
        timings["mih query"] = time.perf_counter() - start

        start = time.perf_counter()
        tree = BKTree(int(h) for h in hashes)
        timings["bk build"] = time.perf_counter() - start
        start = time.perf_counter()
        bk_results = [
            frozenset(i for i, _ in tree.query(int(q), radius)) for q in queries
        ]
        timings["bk query"] = time.perf_counter() - start

        start = time.perf_counter()
        neighbors = NeighborGraph.from_pairs(
            *_dense_pairs(hashes, hashes, radius), hashes.size
        )
        timings["brute all-pairs"] = time.perf_counter() - start
        return timings, mih_results, bk_results, neighbors

    timings, mih_results, bk_results, neighbors = once(benchmark, run)

    # All strategies agree exactly.
    assert mih_results == bk_results
    query_positions = [int(np.flatnonzero(hashes == q)[0]) for q in queries]
    for q_index, position in enumerate(query_positions):
        assert frozenset(neighbors[position].tolist()) == mih_results[q_index]

    per_query = {
        "MIH": timings["mih query"] / len(queries),
        "BK-tree": timings["bk query"] / len(queries),
    }
    # MIH queries must be fast in absolute terms.
    assert per_query["MIH"] < 0.05

    # The recorded table holds what every host reproduces; the timings
    # are printed only.
    text = format_table(
        [
            ["collection size", len(hashes)],
            ["queries timed", len(queries)],
            ["MIH, BK-tree and brute force agree", "yes"],
            ["MIH per query", "< 50 ms (asserted)"],
        ],
        title="Ablation: Hamming radius search strategies (radius 8)",
    )
    write_output("ablation_index", text)
    print(
        format_table(
            [
                ["MIH build (s)", f"{timings['mih build']:.3f}", ""],
                ["MIH per query (ms)", f"{1000 * per_query['MIH']:.3f}", ""],
                ["BK build (s)", f"{timings['bk build']:.3f}", ""],
                ["BK per query (ms)", f"{1000 * per_query['BK-tree']:.3f}", ""],
                ["brute all-pairs (s)", f"{timings['brute all-pairs']:.3f}",
                 "(computes every neighbourhood)"],
            ],
            title="Host timings (not recorded)",
        )
    )
