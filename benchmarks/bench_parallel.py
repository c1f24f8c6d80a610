#!/usr/bin/env python
"""Benchmark the batched radius join and the association fan-out.

Standalone (not pytest-benchmark): run as

    PYTHONPATH=src python benchmarks/bench_parallel.py [--workers 4]
        [--smoke] [--output BENCH_parallel.json]

Measures two hot paths on synthetic workloads sized like the paper's
per-community image multisets:

* ``radius_neighbors`` on a clustered 50k-hash multiset — the DBSCAN
  Step-2/3 bottleneck and the headline number: the serial join (one
  :class:`repro.hashing.index.RadiusIndex` add, each pair found once)
  against the per-query reference path;
* ``associate_hashes`` (Step 6), the one supervised fan-out, sharded
  over unique hashes, against its serial run.

The join has no fan-out: serial, it beat a query-range process fan-out
on 2 CPUs.  The per-cluster Hawkes fits have none either: one stacked
EM fits every cluster of a study, and on 2 CPUs it beat a cluster-shard
fan-out on both pool backends.

Every record verifies its output element-for-element against a
reference before reporting a speedup — a fast wrong answer scores zero.
The join's ``speedup`` is algorithmic, not core-count: batching against
one lookup per hash.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace

import numpy as np

from repro.annotation.association import associate_hashes
from repro.hashing.index import MultiIndexHash
from repro.hashing.pairwise import radius_neighbors
from repro.utils.bitops import popcount
from repro.utils.parallel import Executor, ParallelConfig, effective_workers


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


def bench_association(n_hashes: int, n_medoids: int, parallel: ParallelConfig) -> dict:
    rng = np.random.default_rng(13)
    medoid_values = rng.integers(0, 2**64, size=n_medoids, dtype=np.uint64)
    medoids = {int(i): int(v) for i, v in enumerate(medoid_values)}
    near = np.repeat(medoid_values, 3) ^ np.uint64(1)
    hashes = np.concatenate(
        [near, clustered_hashes(max(1, (n_hashes - near.size) // 10), 10, seed=17)]
    )
    serial, serial_s = _timed(lambda: associate_hashes(hashes, medoids, theta=8))
    par, parallel_s = _timed(
        lambda: associate_hashes(hashes, medoids, theta=8, parallel=parallel)
    )
    identical = bool(
        np.array_equal(serial.cluster_ids, par.cluster_ids)
        and np.array_equal(serial.distances, par.distances)
    )
    return {
        "name": "associate_hashes",
        "n_items": int(hashes.size),
        "n_medoids": n_medoids,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "identical": identical,
    }


def bench_supervision_overhead(
    parallel: ParallelConfig, repeats: int = 5
) -> dict:
    """Clean-path cost of the supervision ladder vs. a plain serial loop.

    The supervised path must stay within 5% of the plain loop when no
    shard misbehaves — supervision is bookkeeping, not a slow path.

    Measured on the serial execution path regardless of ``--backend``:
    the ladder's clean-path cost (chaos consultation, error-trail
    bookkeeping, ordered collection) is identical per shard on every
    backend.  The asserted number is the *directly attributed* ladder
    time — supervised wall-clock minus the in-shard compute, which the
    timed kernel records itself — as a fraction of the run, median over
    rounds.  A paired plain-vs-supervised wall-clock ratio is reported
    alongside for information only: on a loaded CI box, scheduler
    stalls swing either side's wall-clock by multiples (not percent),
    so no honest wall-clock ratio can hold a 5% threshold, while the
    attributed ladder time is self-normalising (a stall lands inside
    some shard's compute and cancels out of the subtraction).
    """
    rng = np.random.default_rng(23)
    a = rng.integers(0, 2**64, size=1600, dtype=np.uint64)
    b = rng.integers(0, 2**64, size=1600, dtype=np.uint64)
    items = [(a, b) for _ in range(8)]
    executor = Executor(replace(parallel, workers=1))
    in_shard: list[float] = []

    def kernel(left, right):
        # All-pairs Hamming distances of one shard.
        return popcount(left[:, None] ^ right[None, :])

    def timed_kernel(left, right):
        started = time.perf_counter()
        try:
            return kernel(left, right)
        finally:
            in_shard.append(time.perf_counter() - started)

    def plain_loop():
        return [kernel(*item) for item in items]

    def supervised():
        in_shard.clear()
        results = executor.supervised_starmap(timed_kernel, items)
        # Clean path: every shard ran exactly once, nothing was retried.
        return results, len(in_shard) == len(items), sum(in_shard)

    plain = plain_loop()  # warm-up
    sup, clean, _ = supervised()
    for _ in range(2):  # two more pairs: converge the allocator
        plain_loop()
        supervised()
    rounds = []
    for round_index in range(repeats):
        # Alternate order within the pair: whichever side runs second
        # inherits a warm allocator, and a fixed order would bias the
        # informational ratio in its favour.
        if round_index % 2 == 0:
            _, round_plain_s = _timed(plain_loop)
            (_, round_clean, in_shard_s), round_supervised_s = _timed(
                supervised
            )
        else:
            (_, round_clean, in_shard_s), round_supervised_s = _timed(
                supervised
            )
            _, round_plain_s = _timed(plain_loop)
        clean = clean and round_clean
        ladder_pct = (
            100.0 * (round_supervised_s - in_shard_s) / round_supervised_s
            if round_supervised_s
            else 0.0
        )
        rounds.append(
            (ladder_pct, round_plain_s, round_supervised_s,
             round_supervised_s / round_plain_s)
        )
    rounds.sort()
    overhead_pct, plain_s, supervised_s, wall_ratio = (
        rounds[len(rounds) // 2]
    )
    identical = len(sup) == len(plain) and all(
        np.array_equal(s, p) for s, p in zip(sup, plain)
    )
    return {
        "name": "supervision_overhead",
        "n_items": len(items),
        "plain_s": plain_s,
        "supervised_s": supervised_s,
        "overhead_pct": overhead_pct,
        "wall_ratio_informational": wall_ratio,
        "identical": identical,
        "clean_path": clean,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="process"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads: verify identity and JSON shape, skip the "
        "speedup assertion (for CI)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_parallel.json"),
    )
    args = parser.parse_args(argv)
    parallel = ParallelConfig(workers=args.workers, backend=args.backend)

    if args.smoke:
        # 2,500 hashes: past radius_neighbors' dense limit, so the
        # smoke run exercises the join too.
        sizes = dict(neighbors=2_500, assoc=5_000, medoids=50)
    else:
        sizes = dict(neighbors=50_000, assoc=200_000, medoids=1_000)

    records = []
    capped = effective_workers(args.workers)
    print(f"workers={args.workers} (effective={capped}) "
          f"backend={args.backend} cpus={os.cpu_count()} "
          f"smoke={args.smoke}", flush=True)
    join = bench_radius_neighbors(sizes["neighbors"])
    records.append(join)
    print(
        f"  {join['name']:32s} n={join['n_items']:>7,}  "
        f"per-query={join['per_query_s']:8.3f}s  "
        f"serial={join['serial_s']:8.3f}s  "
        f"speedup={join['speedup']:5.2f}x  "
        f"identical={join['identical']}",
        flush=True,
    )
    association = bench_association(sizes["assoc"], sizes["medoids"], parallel)
    records.append(association)
    print(
        f"  {association['name']:32s} n={association['n_items']:>7,}  "
        f"serial={association['serial_s']:8.3f}s  "
        f"parallel={association['parallel_s']:8.3f}s  "
        f"speedup={association['speedup']:5.2f}x  "
        f"identical={association['identical']}",
        flush=True,
    )

    overhead = bench_supervision_overhead(parallel)
    records.append(overhead)
    print(
        f"  {overhead['name']:28s} n={overhead['n_items']:>7,}  "
        f"plain={overhead['plain_s']:8.3f}s  "
        f"supervised={overhead['supervised_s']:8.3f}s  "
        f"ladder={overhead['overhead_pct']:+5.2f}%  "
        f"wall-ratio={overhead['wall_ratio_informational']:5.2f}  "
        f"identical={overhead['identical']} "
        f"clean={overhead['clean_path']}",
        flush=True,
    )

    payload = {
        "benchmark": "parallel hot paths (ISSUE 2) + supervision (ISSUE 4)",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": {
            "workers": args.workers,
            "effective_workers": capped,
            "backend": args.backend,
            "smoke": args.smoke,
        },
        "records": records,
    }
    output = os.path.abspath(args.output)
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {output}")

    if not all(record["identical"] for record in records):
        print("FAIL: output differs from its reference", file=sys.stderr)
        return 1
    if not overhead["clean_path"]:
        print(
            "FAIL: supervision retried/rescued shards on a clean workload",
            file=sys.stderr,
        )
        return 1
    if overhead["overhead_pct"] >= 5.0:
        print(
            f"FAIL: supervision ladder consumed "
            f"{overhead['overhead_pct']:.1f}% >= 5% of the clean-path run",
            file=sys.stderr,
        )
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
