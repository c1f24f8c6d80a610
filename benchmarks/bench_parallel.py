#!/usr/bin/env python
"""Benchmark the batched radius join against its per-query reference.

Standalone (not pytest-benchmark): run as

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke]
        [--output BENCH_parallel.json]

Times ``radius_neighbors`` on a clustered 50k-hash multiset, sized like
the paper's per-community image multisets — the DBSCAN Step-2/3
bottleneck: the serial join (one :class:`repro.hashing.index.
RadiusIndex` add, each pair found once) against the per-query reference
path (one ``MultiIndexHash.query_indices`` lookup per hash).

The record verifies the join's output element-for-element against the
reference before reporting a speedup — a fast wrong answer scores zero —
and a full run fails below 2x.  The ``speedup`` is algorithmic, not
core-count: batching against one lookup per hash.  Nothing in the
library fans out over worker pools any more (DESIGN.md §6), so the file
keeps its name but records no fan-out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.hashing.index import MultiIndexHash
from repro.hashing.pairwise import radius_neighbors


def clustered_hashes(n_bases: int, members: int, seed: int = 7) -> np.ndarray:
    """Clustered pHash multiset: bases with 0-3 random bit flips each.

    Mimics the paper's data: near-duplicate variants of shared templates
    rather than uniform random codes (which would make MIH look
    unrealistically good).
    """
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 2**64, size=n_bases, dtype=np.uint64)
    out = np.repeat(bases, members)
    flips = rng.integers(0, 4, size=out.size)
    for bit in range(3):
        mask = flips > bit
        positions = rng.integers(0, 64, size=out.size, dtype=np.uint64)
        out[mask] ^= np.uint64(1) << positions[mask]
    return out


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_radius_neighbors(n_hashes: int) -> dict:
    hashes = clustered_hashes(n_hashes // 10, 10)
    # Per-query reference: one MultiIndexHash lookup per hash.  This was
    # radius_neighbors' serial implementation before batched kernels
    # started serving serial callers too; timing it keeps the headline
    # comparable across runs of this file and keeps the speedup honest
    # about where it comes from (batching, not core count).
    def per_query():
        index = MultiIndexHash(hashes)
        return [index.query_indices(int(value), 8) for value in hashes]

    reference, reference_s = _timed(per_query)
    serial, serial_s = _timed(lambda: radius_neighbors(hashes, 8))
    identical = len(serial) == len(reference) and all(
        np.array_equal(a, b) for a, b in zip(serial, reference)
    )
    return {
        "name": "radius_neighbors_mih",
        "n_items": int(hashes.size),
        "radius": 8,
        "per_query_s": reference_s,
        "serial_s": serial_s,
        # Batched serial join vs the per-query reference.
        "speedup": reference_s / serial_s if serial_s else float("inf"),
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload: verify identity and JSON shape, skip the "
        "speedup assertion (for CI)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_parallel.json"),
    )
    args = parser.parse_args(argv)

    print(f"cpus={os.cpu_count()} smoke={args.smoke}", flush=True)
    join = bench_radius_neighbors(2_500 if args.smoke else 50_000)
    print(
        f"  {join['name']:32s} n={join['n_items']:>7,}  "
        f"per-query={join['per_query_s']:8.3f}s  "
        f"serial={join['serial_s']:8.3f}s  "
        f"speedup={join['speedup']:5.2f}x  "
        f"identical={join['identical']}",
        flush=True,
    )

    payload = {
        "benchmark": "batched radius join vs per-query reference",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "smoke": args.smoke,
        "records": [join],
    }
    output = os.path.abspath(args.output)
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {output}")

    if not join["identical"]:
        print("FAIL: output differs from its reference", file=sys.stderr)
        return 1
    if not args.smoke and join["speedup"] < 2.0:
        print(
            f"FAIL: headline batched-vs-per-query speedup "
            f"{join['speedup']:.2f}x < 2x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
