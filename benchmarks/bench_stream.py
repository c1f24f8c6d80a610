#!/usr/bin/env python
"""Benchmark durable streaming ingestion: throughput, recovery, pauses.

Standalone (not pytest-benchmark): run as

    PYTHONPATH=src python benchmarks/bench_stream.py [--smoke]
        [--output BENCH_stream.json]

Four measurements over one synthetic corpus streamed through
:class:`repro.stream.StreamIngester` with fsynced WAL appends and
drift-triggered compaction:

* **sustained ingest** — events/second over the whole stream, WAL and
  compactions included, extrapolated to posts/day.  The paper's corpus
  is ~160M posts over ~2.5 years (~175k/day); the headline assertion
  is that the ingester sustains >= 1M posts/day.
* **bounded memory** — the admission buffer's peak depth must respect
  ``max_buffer``; peak RSS is recorded.  The WAL is the post log, so
  it grows with the posts (each written once) and is never truncated.
* **recovery** — the WAL directory is reopened as a crashed session
  (post columns rebuilt from the WAL, checkpoint load, WAL-suffix
  replay); must come back in < 2s.
* **compaction pause** — one forced full compaction (re-cluster +
  annotate + associate + checkpoint), the worst-case
  stall an operator schedules around.

The recovered, compacted state is asserted bit-identical to a cold
batch run over the same events — the whole point of the protocol.

A fifth measurement, **group_commit**, re-streams the same corpus with
:attr:`~repro.stream.StreamConfig.group_commit` on and bursty arrivals
(``max_buffer``-sized reads, so each drain appends several WAL records
as one commit group with a single fsync).  Its state must also be
bit-identical to the batch run, and sustained fsynced ingest must meet
the throughput gate (>= 5,000 events/s on the full corpus).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.communities import SyntheticWorld, WorldConfig
from repro.core import run_pipeline
from repro.stream import StreamConfig, StreamIngester, state_equals


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus: verify bit-identity, recovery, and JSON "
        "shape on CI timescales",
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_stream.json"
        ),
    )
    args = parser.parse_args(argv)
    world_config = WorldConfig(
        seed=args.seed,
        events_unit=10.0 if args.smoke else 75.0,
        noise_scale=0.8,
    )
    max_buffer = 1024
    batch_size = 128

    work_dir = tempfile.mkdtemp(prefix="bench-stream-")
    wal_dir = os.path.join(work_dir, "wal")
    try:
        # World generation stays outside the timers: the benchmark
        # measures ingestion, not synthetic-corpus synthesis.
        world = SyntheticWorld.generate(world_config)
        n_events = len(world.posts)
        print(f"corpus: seed={world_config.seed} "
              f"events_unit={world_config.events_unit} "
              f"posts={n_events:,}", flush=True)
        rss_before = _peak_rss_mb()

        stream = StreamConfig(
            wal_dir=wal_dir,
            max_buffer=max_buffer,
            batch_size=batch_size,
            fsync=True,
        )
        source = world.event_source()
        ingester = StreamIngester(world, stream=stream)

        def sustained():
            while ingester.n_events < source.n_events:
                ingester.ingest(source.read(ingester.n_events, batch_size))

        _, ingest_s = _timed(sustained)
        events_per_s = n_events / ingest_s if ingest_s else float("inf")
        posts_per_day = events_per_s * 86_400.0
        buffer_peak = ingester.buffer.peak_depth
        mid_compactions = ingester.report.compactions
        print(f"  sustained ingest {ingest_s:8.3f}s  "
              f"{events_per_s:10,.0f} events/s  "
              f"({posts_per_day:,.0f} posts/day, "
              f"{mid_compactions} compactions inline)", flush=True)

        # Crash the session mid-flight: the events since the last
        # inline compaction are only in the WAL, so recovery has a real
        # suffix to replay — not just a checkpoint read.
        applied = ingester.n_events
        ingester.wal.close()
        os.remove(os.path.join(wal_dir, ".lock"))

        recovered, recovery_s = _timed(
            lambda: StreamIngester(world, stream=stream)
        )
        print(f"  recovery         {recovery_s:8.3f}s  "
              f"(replayed {recovered.report.replayed_events} events)",
              flush=True)
        assert recovered.n_events == applied

        _, compact_s = _timed(lambda: recovered.compact(force=True))
        print(f"  compaction pause {compact_s:8.3f}s", flush=True)
        streamed = recovered.result()
        recovered.close()
        batch, batch_s = _timed(lambda: run_pipeline(world))
        bit_identical = state_equals(streamed, batch)
        rss_after = _peak_rss_mb()
        print(f"  batch reference  {batch_s:8.3f}s  "
              f"bit-identical={bit_identical}", flush=True)
        print(f"  peak RSS {rss_after:.0f} MB (was {rss_before:.0f} MB "
              f"before ingest)  buffer peak {buffer_peak}/{max_buffer}",
              flush=True)

        # Group commit: same corpus, bursty arrivals (whole-buffer
        # reads), every drain fsynced once for its whole record group.
        group_wal = os.path.join(work_dir, "wal-group")
        group_config = StreamConfig(
            wal_dir=group_wal,
            max_buffer=max_buffer,
            batch_size=batch_size,
            fsync=True,
            group_commit=True,
        )
        group_source = world.event_source()
        group = StreamIngester(world, stream=group_config)

        def sustained_grouped():
            while group.n_events < group_source.n_events:
                group.ingest(
                    group_source.read(group.n_events, max_buffer)
                )

        _, group_s = _timed(sustained_grouped)
        group_events_per_s = n_events / group_s if group_s else float("inf")
        group_records = group.report.wal_records
        group.compact(force=True)
        group_identical = state_equals(group.result(), batch)
        group.close()
        print(f"  group commit     {group_s:8.3f}s  "
              f"{group_events_per_s:10,.0f} events/s  "
              f"({group_records} WAL records, "
              f"bit-identical={group_identical})", flush=True)

        # Smoke corpora are too small to amortise the fixed pipeline
        # costs, so the hard throughput gate applies to the full run.
        group_gate = 500.0 if args.smoke else 5_000.0
        failures = []
        if not bit_identical:
            failures.append("streamed state diverged from the batch run")
        if not group_identical:
            failures.append(
                "group-commit state diverged from the batch run"
            )
        if group_events_per_s < group_gate:
            failures.append(
                f"group-commit ingest {group_events_per_s:,.0f} events/s "
                f"< {group_gate:,.0f} gate"
            )
        if buffer_peak > max_buffer:
            failures.append(
                f"buffer peak {buffer_peak} exceeded max_buffer {max_buffer}"
            )
        if recovery_s >= 2.0:
            failures.append(f"recovery took {recovery_s:.3f}s (>= 2s)")
        if posts_per_day < 1_000_000:
            failures.append(
                f"throughput {posts_per_day:,.0f} posts/day < 1M"
            )

        payload = {
            "benchmark": "durable streaming ingestion (ISSUE 9)",
            "host": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "config": {
                "seed": world_config.seed,
                "events_unit": world_config.events_unit,
                "smoke": args.smoke,
                "n_events": n_events,
                "max_buffer": max_buffer,
                "batch_size": batch_size,
                "compact_threshold": stream.compact_threshold,
                "fsync": True,
            },
            "records": [
                {
                    "name": "sustained_ingest",
                    "seconds": ingest_s,
                    "events_per_second": events_per_s,
                    "posts_per_day": posts_per_day,
                    "inline_compactions": mid_compactions,
                    "buffer_peak": buffer_peak,
                    "buffer_bound": max_buffer,
                },
                {
                    "name": "compaction_pause",
                    "seconds": compact_s,
                },
                {
                    "name": "recovery_after_kill",
                    "seconds": recovery_s,
                    "replayed_events": recovered.report.replayed_events,
                    "budget_seconds": 2.0,
                },
                {
                    "name": "batch_reference",
                    "seconds": batch_s,
                    "bit_identical_to_stream": bit_identical,
                },
                {
                    "name": "group_commit",
                    "seconds": group_s,
                    "events_per_second": group_events_per_s,
                    "posts_per_day": group_events_per_s * 86_400.0,
                    "wal_records": group_records,
                    "bit_identical_to_batch": group_identical,
                    "events_per_second_gate": group_gate,
                },
            ],
            "rss_mb": {"before_ingest": rss_before, "peak": rss_after},
            "failures": failures,
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {os.path.abspath(args.output)}", flush=True)
        if failures:
            for failure in failures:
                print(f"FAILED: {failure}", file=sys.stderr)
            return 1
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
