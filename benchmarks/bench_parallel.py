#!/usr/bin/env python
"""Benchmark the parallel hot-path layer against the serial baseline.

Standalone (not pytest-benchmark): run as

    PYTHONPATH=src python benchmarks/bench_parallel.py [--workers 4]
        [--smoke] [--output BENCH_parallel.json]

Measures the three parallelised hot paths on synthetic workloads sized
like the paper's per-community image multisets:

* ``radius_neighbors`` (``method="mih"``) on a clustered 50k-hash
  multiset — the DBSCAN Step-2/3 bottleneck and the headline number:
  the batched join against the per-query reference path;
* ``associate_hashes`` (Step 6) sharded over unique hashes;
* per-cluster Hawkes fits via :func:`fit_cluster_influence`.

Every record verifies the parallel output element-for-element against
serial before reporting a speedup — a fast wrong answer scores zero.

Note on mechanism: the headline win is algorithmic, not core-count.
The batched join (:func:`repro.hashing.index.radius_join`) replaced the
per-query reference path for serial callers too (reported as
``speedup``); ``parallel_vs_serial`` is what the process fan-out adds
on top (fresh pool per fan-out, shards pickled to the workers), so on
few-core hosts it is what the cores give and no more.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace
from statistics import median

import numpy as np

from repro.analysis.influence import fit_cluster_influence
from repro.annotation.association import associate_hashes
from repro.hashing.index import MultiIndexHash
from repro.hashing.pairwise import radius_neighbors
from repro.hawkes.model import EventSequence
from repro.utils.bitops import hamming_distance_matrix
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


def _paired_medians(serial_fn, parallel_fn, rounds: int = 3):
    """Alternate serial/parallel runs; each side's last result and median.

    Alternating which side runs first makes slow host drift hit both
    sides equally, and the median keeps one scheduler stall from
    deciding the ratio.
    """
    times = {"serial": [], "parallel": []}
    results = {}
    for round_index in range(rounds):
        order = ("serial", "parallel") if round_index % 2 == 0 else (
            "parallel", "serial"
        )
        for side in order:
            fn = serial_fn if side == "serial" else parallel_fn
            results[side], elapsed = _timed(fn)
            times[side].append(elapsed)
    return (
        results["serial"],
        median(times["serial"]),
        results["parallel"],
        median(times["parallel"]),
    )


def bench_radius_neighbors(n_hashes: int, parallel: ParallelConfig) -> dict:
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
    serial, serial_s, par, parallel_s = _paired_medians(
        lambda: radius_neighbors(hashes, 8, method="mih"),
        lambda: radius_neighbors(hashes, 8, method="mih", parallel=parallel),
    )
    identical = (
        len(serial) == len(par) == len(reference)
        and all(np.array_equal(a, b) for a, b in zip(serial, par))
        and all(np.array_equal(a, b) for a, b in zip(serial, reference))
    )
    return {
        "name": "radius_neighbors_mih",
        "n_items": int(hashes.size),
        "radius": 8,
        "per_query_s": reference_s,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        # Batched serial kernel vs the per-query reference.
        "speedup": reference_s / serial_s if serial_s else float("inf"),
        # The process fan-out against serial.
        "parallel_vs_serial": serial_s / parallel_s if parallel_s else float("inf"),
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


def bench_hawkes_fits(n_clusters: int, parallel: ParallelConfig) -> dict:
    rng = np.random.default_rng(19)
    k = 5
    sequences = []
    for _ in range(n_clusters):
        n_events = int(rng.integers(40, 120))
        times = np.sort(rng.uniform(0.0, 60.0, size=n_events))
        procs = rng.integers(0, k, size=n_events)
        sequences.append(EventSequence.from_unsorted(times, procs, 60.0))
    items = [(sequence, k, None) for sequence in sequences]
    serial, serial_s = _timed(
        lambda: [fit_cluster_influence(*item) for item in items]
    )
    par, parallel_s = _timed(
        lambda: Executor(parallel).starmap(fit_cluster_influence, items)
    )
    identical = all(
        s[0] == p[0]
        and (
            s[0] != "ok"
            or np.array_equal(s[1].expected_events, p[1].expected_events)
        )
        for s, p in zip(serial, par)
    )
    return {
        "name": "hawkes_fits",
        "n_items": n_clusters,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "identical": identical,
    }


def bench_supervision_overhead(
    parallel: ParallelConfig, repeats: int = 5
) -> dict:
    """Clean-path cost of the supervision ladder vs. the plain fan-out.

    The supervised path must stay within 5% of plain ``starmap`` when no
    shard misbehaves — supervision is bookkeeping, not a slow path.

    Measured on the serial execution path regardless of ``--backend``:
    the ladder's clean-path cost (chaos consultation, ShardReport
    bookkeeping, ordered collection) is identical per shard on every
    backend.  The asserted number is the *directly attributed* ladder
    time — supervised wall-clock minus the in-shard compute the
    ShardReports record — as a fraction of the run, median over rounds.
    A paired plain-vs-supervised wall-clock ratio is reported alongside
    for information only: on a loaded CI box, scheduler stalls swing
    either side's wall-clock by multiples (not percent), so no honest
    wall-clock ratio can hold a 5% threshold, while the attributed
    ladder time is self-normalising (a stall lands inside some shard's
    duration and cancels out of the subtraction).
    """
    rng = np.random.default_rng(23)
    a = rng.integers(0, 2**64, size=1600, dtype=np.uint64)
    b = rng.integers(0, 2**64, size=1600, dtype=np.uint64)
    items = [(a, b) for _ in range(8)]
    executor = Executor(replace(parallel, workers=1))

    plain = executor.starmap(hamming_distance_matrix, items)  # warm-up
    sup = executor.supervised_starmap(hamming_distance_matrix, items)
    for _ in range(2):  # two more pairs: converge the allocator
        executor.starmap(hamming_distance_matrix, items)
        executor.supervised_starmap(hamming_distance_matrix, items)
    rounds = []
    for round_index in range(repeats):
        # Alternate order within the pair: whichever side runs second
        # inherits a warm allocator, and a fixed order would bias the
        # informational ratio in its favour.
        if round_index % 2 == 0:
            _, round_plain_s = _timed(
                lambda: executor.starmap(hamming_distance_matrix, items)
            )
            round_sup, round_supervised_s = _timed(
                lambda: executor.supervised_starmap(
                    hamming_distance_matrix, items
                )
            )
        else:
            round_sup, round_supervised_s = _timed(
                lambda: executor.supervised_starmap(
                    hamming_distance_matrix, items
                )
            )
            _, round_plain_s = _timed(
                lambda: executor.starmap(hamming_distance_matrix, items)
            )
        in_shard_s = sum(
            shard.duration_s for shard in round_sup.report.shards
        )
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
    identical = sup.complete and all(
        np.array_equal(s, p) for s, p in zip(sup.results, plain)
    )
    clean = all(
        shard.outcome == "ok" and shard.attempts == 1
        for shard in sup.report.shards
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
        sizes = dict(neighbors=2_000, assoc=5_000, medoids=50, hawkes=4)
    else:
        sizes = dict(neighbors=50_000, assoc=200_000, medoids=1_000, hawkes=20)

    records = []
    capped = effective_workers(args.workers)
    print(f"workers={args.workers} (effective={capped}) "
          f"backend={args.backend} cpus={os.cpu_count()} "
          f"smoke={args.smoke}", flush=True)
    for record in (
        bench_radius_neighbors(sizes["neighbors"], parallel),
        bench_association(sizes["assoc"], sizes["medoids"], parallel),
        bench_hawkes_fits(sizes["hawkes"], parallel),
    ):
        records.append(record)
        extra = (
            f"  [per-query={record['per_query_s']:.3f}s, "
            f"parallel/serial={record['parallel_vs_serial']:.2f}x]"
            if "per_query_s" in record
            else ""
        )
        print(
            f"  {record['name']:32s} n={record['n_items']:>7,}  "
            f"serial={record['serial_s']:8.3f}s  "
            f"parallel={record['parallel_s']:8.3f}s  "
            f"speedup={record['speedup']:5.2f}x  "
            f"identical={record['identical']}{extra}",
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
        print("FAIL: parallel output differs from serial", file=sys.stderr)
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
    headline = records[0]
    if not args.smoke and headline["speedup"] < 2.0:
        print(
            f"FAIL: headline batched-vs-per-query speedup "
            f"{headline['speedup']:.2f}x < 2x",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and headline["parallel_vs_serial"] < 1.5:
        print(
            f"FAIL: process fan-out at "
            f"{headline['parallel_vs_serial']:.2f}x < 1.5x vs serial",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
