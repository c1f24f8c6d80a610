"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``overview``
    Generate a world, run the pipeline, print dataset + clustering
    overviews (Tables 1-2).
``top``
    Print the top meme/people rankings per community (Tables 3-5).
``influence``
    Fit the Hawkes models and print the influence matrices (Figs. 11-12)
    with ground truth alongside.
``clusters``
    Print Appendix-D style inspection reports for the most-posted
    clusters.
``report``
    Everything above in one run.
``serve-replay``
    Classify a request stream (``--stream`` file of pHashes, or the
    world's own posts) through the resilient serving layer
    (:mod:`repro.service`) and print the accounting: served / shed /
    timed-out / dead-lettered always sum to submitted.
    ``--coalesce-window N`` serves each drain in windows of up to N
    requests, one ``classify_batch`` call per window (default 1:
    per-request serving).
``cache``
    Inspect (``cache`` / ``cache info``) or wipe (``cache clear``) the
    content-addressed cache at ``--cache-dir``.
``stream``
    Feed the world's posts through the durable streaming ingester
    (:mod:`repro.stream`): WAL-backed event batches, online
    index/cluster/association state, drift-triggered compaction.
    ``--wal-dir`` (required) holds the write-ahead log and
    the ``stream.ckpt`` checkpoint, so a killed run — including one
    killed by an injected ``stream:ingest``/``stream:wal``/
    ``stream:compact`` fault — resumes from checkpoint + WAL replay::

        python -m repro --wal-dir wal --inject-fault stream:ingest@2@kill stream
        python -m repro --wal-dir wal --verify-batch stream

    ``--verify-batch`` re-runs the batch pipeline over the same event
    prefix after ingestion and exits 4 unless the streamed state is
    bit-identical.

All commands share ``--seed``, ``--events-unit`` and ``--noise-scale``
controlling the synthetic world's scale, plus ``--max-retries``
(transient-failure retries per stage item).  Every step runs serially
in one process.

``--cache-dir DIR`` turns on content-addressed memoization
(:mod:`repro.core.cache`): a re-run with unchanged inputs reports
``cached`` per stage, and a run whose corpus merely *grew* does delta
work only (incremental neighbourhood merging, prefix association).
Without it nothing is cached::

    python -m repro --cache-dir cache report      # cold: fills the cache
    python -m repro --cache-dir cache report      # warm: every stage cached
    python -m repro --cache-dir cache cache       # inspect entries
    python -m repro --cache-dir cache cache clear

The cache is also how a killed run restarts: re-run the same command
on the same ``--cache-dir`` and every stage that finished before the
crash reports ``cached``; the rest recompute.  Degraded outcomes are
never stored, so a re-run after the fault clears recomputes them::

    python -m repro --cache-dir cache --inject-fault associate@1@runtime report
    python -m repro --cache-dir cache report      # 3 stages cached

Exit status: 0 on a clean run; **3** when the pipeline finished only
partially — quarantined communities or failed stages — so operators can
alert on degraded results; 4 when ``serve-replay`` loses a request
(conservation violation; should never happen).  ``--inject-fault
SITE[@TIMES][@KIND]`` arms the deterministic fault injector for chaos
drills; a SITE outside the namespaces the code fires (``cluster``,
``annotate``, ``associate``, ``screenshot-filter``, ``serve``,
``stream``) is a usage error (exit 2), e.g.::

    python -m repro --inject-fault cluster:pol@9@runtime overview
    python -m repro --inject-fault serve:classify@20 serve-replay
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from repro.analysis import (
    ground_truth_influence,
    influence_study,
    top_entries_by_clusters,
    top_entries_by_posts,
    top_subreddits,
)
from repro.communities import (
    COMMUNITIES,
    DISPLAY_NAMES,
    FRINGE_COMMUNITIES,
    SyntheticWorld,
    WorldConfig,
)
from repro.core import PipelineConfig, RunnerOptions, run_pipeline
from repro.stream import (
    DEFAULT_COMPACT_THRESHOLD,
    PrefixWorld,
    StreamConfig,
    StreamIngester,
    state_equals,
)
from repro.utils.io import CheckpointLockError
from repro.utils.tables import print_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Origins of Memes by Means of Fringe "
            "Web Communities' (IMC 2018) on a synthetic meme ecosystem."
        ),
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--events-unit",
        type=float,
        default=60.0,
        help="meme events on the smallest community (scales the world)",
    )
    parser.add_argument(
        "--noise-scale", type=float, default=1.0, help="noise volume multiplier"
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per stage item on transient failures",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the content-addressed cache (enables "
        "memoization: warm re-runs hit per stage, grown inputs do "
        "delta work only, and re-running after a crash reuses every "
        "finished stage; output is bit-identical either way)",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SITE[@TIMES][@KIND]",
        help="arm a deterministic fault for chaos drills; KIND is "
        "transient (default, retryable), runtime (permanent), or — at "
        "the stream:* sites — hang (the ingester stalls) or kill (the "
        "process dies mid-ingest); repeatable",
    )
    serving = parser.add_argument_group(
        "serve-replay options (resilient serving layer)"
    )
    serving.add_argument(
        "--stream",
        default=None,
        help="file of pHashes to replay, one per line (decimal or 0x hex; "
        "unparseable lines become poison inputs and are dead-lettered); "
        "default replays every world post",
    )
    serving.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request latency budget in milliseconds (default: none)",
    )
    serving.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        help="admission queue bound; 0 = unbounded (default 1024)",
    )
    serving.add_argument(
        "--shed-watermark",
        type=int,
        default=None,
        help="queue depth at which arrivals are shed (default: the bound)",
    )
    serving.add_argument(
        "--burst",
        type=int,
        default=32,
        help="requests submitted per drain cycle (queue pressure; default 32)",
    )
    serving.add_argument(
        "--no-breaker",
        action="store_true",
        help="disable the circuit breaker",
    )
    serving.add_argument(
        "--service-retries",
        type=int,
        default=2,
        help="transient-failure retries per request (default 2)",
    )
    serving.add_argument(
        "--coalesce-window",
        type=int,
        default=1,
        metavar="N",
        help="serve drained requests in windows of up to N through one "
        "classify_batch call (default 1: per-request serving)",
    )
    streaming = parser.add_argument_group(
        "stream options (durable streaming ingestion)"
    )
    streaming.add_argument(
        "--wal-dir",
        default=None,
        help="directory of the write-ahead log and stream checkpoint "
        "(required for the stream command)",
    )
    streaming.add_argument(
        "--compact-threshold",
        type=float,
        default=DEFAULT_COMPACT_THRESHOLD,
        help="unique-hash growth ratio that triggers compaction "
        f"(default {DEFAULT_COMPACT_THRESHOLD})",
    )
    streaming.add_argument(
        "--max-buffer",
        type=int,
        default=4096,
        help="ingest admission-buffer bound in events; arrivals past it "
        "are shed and re-read from the source cursor (default 4096)",
    )
    streaming.add_argument(
        "--stream-batch",
        type=int,
        default=64,
        help="events per WAL record — the append/fsync granularity "
        "(default 64)",
    )
    streaming.add_argument(
        "--group-commit",
        action="store_true",
        help="group-commit the WAL: each ingest drain is appended as one "
        "buffered write and fsynced once (default: per-record commits)",
    )
    streaming.add_argument(
        "--stream-events",
        type=int,
        default=None,
        metavar="N",
        help="stop after ingesting N events (default: the whole world)",
    )
    streaming.add_argument(
        "--verify-batch",
        action="store_true",
        help="after ingesting, run the batch pipeline over the same "
        "event prefix and exit 4 unless the streamed state is "
        "bit-identical",
    )
    parser.add_argument(
        "command",
        choices=(
            "overview", "top", "influence", "clusters", "report",
            "serve-replay", "cache", "stream",
        ),
        help="what to run",
    )
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help="cache action: info (default) or clear; only valid after "
        "the cache command",
    )
    return parser


def _parse_fault(spec: str):
    """``SITE[@TIMES][@KIND]`` → a :class:`repro.core.faults.Fault`."""
    from repro.core.faults import SITE_NAMESPACES, Fault
    from repro.utils.retry import TransientError

    parts = spec.split("@")
    if len(parts) > 3 or not parts[0]:
        raise ValueError(f"malformed fault spec {spec!r}")
    site = parts[0]
    if site.split(":", 1)[0] not in SITE_NAMESPACES:
        raise ValueError(
            f"unknown fault site {site!r}: no code fires it; the site "
            f"namespace must be one of {', '.join(SITE_NAMESPACES)}"
        )
    times = int(parts[1]) if len(parts) > 1 and parts[1] else 1
    kind = parts[2] if len(parts) > 2 else "transient"
    if kind == "transient":
        return Fault(site, TransientError, times=times)
    if kind == "runtime":
        return Fault(site, RuntimeError, times=times)
    if kind in ("hang", "kill"):
        return Fault(site, action=kind, times=times)
    raise ValueError(
        f"unknown fault kind {kind!r} "
        "(expected transient|runtime|hang|kill)"
    )


def _fault_injector(args):
    """Build the chaos-drill injector from ``--inject-fault``, or ``None``."""
    from repro.core.faults import FaultInjector

    if not args.inject_fault:
        return None
    return FaultInjector([_parse_fault(spec) for spec in args.inject_fault])


def _world_and_pipeline(args, faults=None):
    config = WorldConfig(
        seed=args.seed,
        events_unit=args.events_unit,
        noise_scale=args.noise_scale,
    )
    print(f"Generating world (seed={config.seed}, "
          f"events_unit={config.events_unit})...")
    world = SyntheticWorld.generate(config)
    print(f"  {len(world.posts):,} posts. Running the pipeline...\n")
    options = RunnerOptions(
        max_retries=args.max_retries,
        faults=faults,
        cache_dir=args.cache_dir,
    )
    result = run_pipeline(world, PipelineConfig(), options=options)
    if args.cache_dir or result.degraded:
        for report in result.stage_reports:
            print(f"  [{report.summary()}]")
        print()
    return world, result


def _cache_command(args, parser) -> int:
    """``cache`` / ``cache info`` / ``cache clear`` on ``--cache-dir``."""
    from repro.core import ContentCache

    if not args.cache_dir:
        parser.error("the cache command requires --cache-dir")
    action = args.subcommand or "info"
    cache = ContentCache(args.cache_dir)
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {args.cache_dir}")
        return 0
    entries = cache.entries()
    print(f"{len(entries)} entries, {cache.total_bytes():,} bytes "
          f"in {args.cache_dir}")
    for key, size in entries:
        print(f"  {key}  {size:,} B")
    return 0


def _stream_command(args, parser, faults) -> int:
    """Durable streaming ingestion over the world's event stream.

    Pulls events from the world's :class:`repro.stream.EventSource` at
    the ingester's durable cursor, so a recovered session (after a
    crash or an injected kill) continues exactly where the WAL left
    off — and shed events are simply re-read, never lost.
    """
    if not args.wal_dir:
        parser.error("the stream command requires --wal-dir")
    config = WorldConfig(
        seed=args.seed,
        events_unit=args.events_unit,
        noise_scale=args.noise_scale,
    )
    print(f"Generating world (seed={config.seed}, "
          f"events_unit={config.events_unit})...")
    world = SyntheticWorld.generate(config)
    source = world.event_source()
    limit = source.n_events
    if args.stream_events is not None:
        limit = min(limit, args.stream_events)
    print(f"  {len(world.posts):,} posts. Streaming {limit:,} events "
          f"into {args.wal_dir}...\n")
    stream = StreamConfig(
        wal_dir=args.wal_dir,
        compact_threshold=args.compact_threshold,
        max_buffer=args.max_buffer,
        batch_size=args.stream_batch,
        group_commit=args.group_commit,
    )
    with StreamIngester(world, stream=stream, faults=faults) as ingester:
        if ingester.report.recoveries:
            print(f"  recovered {ingester.n_events:,} events "
                  f"(replayed {ingester.report.replayed_events:,} from "
                  f"WAL, {ingester.report.torn_truncated} torn tails "
                  f"truncated)")
        # Group commit amortises one fsync over a whole drain, so feed
        # it buffer-sized bursts (several WAL records per group);
        # per-record commits keep the one-batch-per-append cadence.
        read_size = args.max_buffer if args.group_commit else args.stream_batch
        while ingester.n_events < limit:
            chunk = min(
                read_size,
                args.max_buffer,
                limit - ingester.n_events,
            )
            ingester.ingest(source.read(ingester.n_events, chunk))
        ingester.compact(force=True)
        print(f"  [{ingester.report.summary()}]")
        result = ingester.result()
        n_events = ingester.n_events
    if args.verify_batch:
        print("\nVerifying against a cold batch run over the same "
              f"{n_events:,}-event prefix...")
        batch = run_pipeline(PrefixWorld(world, n_events), PipelineConfig())
        if not state_equals(result, batch):
            print("ERROR: streamed state diverged from the batch run",
                  file=sys.stderr)
            return 4
        print("verified: streamed state is bit-identical to the batch run")
    _print_overview(world, result)
    return 0


def _partial_failure(result) -> bool:
    """Quarantined communities or failed stages: operators must see it."""
    return any(
        report.quarantined or report.status == "failed"
        for report in result.stage_reports
    )


def _print_overview(world, result) -> None:
    print_table(
        [
            [DISPLAY_NAMES[s.community], s.n_posts, s.n_posts_with_images,
             s.n_images, s.n_unique_phashes]
            for s in world.community_stats()
        ],
        headers=["Platform", "Posts", "w/ images", "Images", "Unique pHashes"],
        title="Dataset overview (Table 1)",
    )
    print_table(
        [
            [
                DISPLAY_NAMES[c],
                result.clusterings[c].n_images,
                result.clusterings[c].n_clusters,
                f"{100 * result.clusterings[c].image_noise_fraction:.0f}%",
                result.n_annotated(c),
            ]
            for c in FRINGE_COMMUNITIES
        ],
        headers=["Platform", "Images", "Clusters", "Noise", "Annotated"],
        title="Clustering (Table 2)",
    )


def _print_top(world, result) -> None:
    for community in FRINGE_COMMUNITIES:
        rows = top_entries_by_clusters(result, world.kym_site, community, n=10)
        print_table(
            [[r.entry, r.category, r.count, r.markers()] for r in rows],
            headers=["Entry", "Category", "Clusters", ""],
            title=f"Top entries by clusters on {DISPLAY_NAMES[community]} (Table 3)",
        )
    for community in ("pol", "reddit", "twitter", "gab"):
        rows = top_entries_by_posts(
            result, world.kym_site, community, n=10, category="memes"
        )
        print_table(
            [[r.entry, r.count, f"{r.percent:.1f}%", r.markers()] for r in rows],
            headers=["Meme", "Posts", "%", ""],
            title=f"Top memes by posts on {DISPLAY_NAMES[community]} (Table 4)",
        )
    rows = top_subreddits(result, group="all", n=10)
    print_table(
        [[r.subreddit, r.posts, f"{r.percent:.1f}%"] for r in rows],
        headers=["Subreddit", "Posts", "%"],
        title="Top subreddits, all memes (Table 6)",
    )


def _print_influence(world, result) -> None:
    print("Fitting Hawkes models per cluster...\n")
    study = influence_study(result, world.config.horizon_days, min_events=10)
    truth = ground_truth_influence(world)

    def matrix_rows(matrix):
        return [
            [DISPLAY_NAMES[COMMUNITIES[s]]]
            + [f"{matrix[s, d]:.1f}%" for d in range(len(COMMUNITIES))]
            for s in range(len(COMMUNITIES))
        ]

    headers = ["Src \\ Dst"] + [DISPLAY_NAMES[c] for c in COMMUNITIES]
    print_table(
        matrix_rows(study.total.percent_of_destination()),
        headers=headers,
        title="Influence, % of destination events (Fig. 11, estimated)",
    )
    print_table(
        matrix_rows(truth.percent_of_destination()),
        headers=headers,
        title="Influence, % of destination events (ground truth)",
    )
    estimated = study.total.total_external_normalized()
    actual = truth.total_external_normalized()
    print_table(
        [
            [DISPLAY_NAMES[c], f"{estimated[i]:.1f}%", f"{actual[i]:.1f}%",
             int(study.total.event_counts[i])]
            for i, c in enumerate(COMMUNITIES)
        ],
        headers=["Community", "Ext/meme (est)", "Ext/meme (truth)", "events"],
        title="Efficiency (Fig. 12 Total-Ext)",
    )


def _load_stream(path) -> list:
    """Parse a replay stream: one pHash per line, '#' comments allowed.

    Unparseable lines are *kept* as raw strings — they flow through the
    service as poison inputs and come back dead-lettered, which is the
    behaviour an operator replaying a dirty production log wants to see
    accounted, not crash on.
    """
    items: list = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            items.append(int(line, 0))
        except ValueError:
            items.append(line)
    return items


def _serve_replay(world, result, args, faults) -> int:
    """Replay a stream through the resilience layer; 0 iff conserved."""
    from repro.service import BreakerConfig, MemeMatchService, ServiceConfig
    from repro.utils.retry import RetryPolicy

    stream = _load_stream(args.stream) if args.stream else world.posts.phash
    config = ServiceConfig(
        default_deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
        max_queue_depth=args.queue_depth if args.queue_depth > 0 else None,
        shed_watermark=args.shed_watermark,
        retry=RetryPolicy(
            max_retries=args.service_retries,
            base_delay=0.005,
            max_delay=0.1,
            jitter="full",
        ),
        breaker=None if args.no_breaker else BreakerConfig(),
        coalesce_window=args.coalesce_window,
    )
    service = MemeMatchService(result, config=config, faults=faults)
    print(f"Replaying {len(stream):,} requests "
          f"(burst={args.burst}, coalesce={args.coalesce_window}, "
          f"index={service.index_size} clusters)...\n")
    responses = []
    burst = max(1, args.burst)
    for start in range(0, len(stream), burst):
        shed = service.submit_many(stream[start : start + burst])
        responses += [response for response in shed if response is not None]
        responses.extend(service.drain())
    responses.extend(service.drain())

    stats = service.stats
    served = [r.verdict for r in responses if r.status == "ok"]
    matched = sum(v.matched for v in served)
    flagged = sum(v.matched and (v.is_racist or v.is_politics) for v in served)
    rows = [
        ["submitted", stats.submitted],
        ["served", stats.served],
        ["  matched", matched],
        ["  flagged (racist/politics)", flagged],
        ["shed", stats.shed],
        ["  breaker fast-fails", stats.breaker_fast_fails],
        ["timed-out", stats.timed_out],
        ["dead-lettered", stats.dead_lettered],
        ["retries", stats.retries],
        ["breaker opens", stats.breaker_opens],
        ["probes", stats.probes],
    ]
    print_table(
        rows,
        headers=["Counter", "Value"],
        title="Serving accounting (every request terminates exactly once)",
    )
    health = service.health()
    print(f"breaker={health['breaker']}  queue_peak={health['queue_peak']}  "
          f"dead_letters={health['dead_letters']}")
    for letter in islice(service.dead_letters, 5):
        print(f"  dead-letter #{letter.request_id}: {letter.reason}")
    if not health["conserved"]:
        print("ERROR: conservation violated — a request was lost")
        return 4
    print(f"conserved: {stats.submitted:,} submitted = "
          f"{stats.served:,} served + {stats.shed:,} shed + "
          f"{stats.timed_out:,} timed-out + "
          f"{stats.dead_lettered:,} dead-lettered")
    return 0


def _print_clusters(result, n: int = 3) -> None:
    from collections import Counter

    from repro.analysis import format_cluster_report, inspect_cluster

    counts = Counter(result.occurrences.cluster_indices.tolist())
    for index, _ in counts.most_common(n):
        key = result.cluster_keys[index]
        print(format_cluster_report(inspect_cluster(result, key)))
        print()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is not None and args.command != "cache":
        parser.error(
            f"unexpected argument {args.subcommand!r} after {args.command}"
        )
    if args.command == "cache" and args.subcommand not in (None, "info", "clear"):
        parser.error(
            f"unknown cache action {args.subcommand!r} (expected info|clear)"
        )
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    threshold = args.compact_threshold
    if not (threshold > 0 and math.isfinite(threshold)):
        parser.error("--compact-threshold must be a positive finite number")
    if args.max_buffer < 1:
        parser.error("--max-buffer must be >= 1")
    if args.stream_batch < 1:
        parser.error("--stream-batch must be >= 1")
    if args.stream_events is not None and args.stream_events < 0:
        parser.error("--stream-events must be >= 0")
    if args.coalesce_window < 1:
        parser.error("--coalesce-window must be >= 1")
    if args.deadline_ms is not None and not args.deadline_ms >= 0:
        parser.error("--deadline-ms must be a non-negative number")
    if args.command == "cache":
        return _cache_command(args, parser)
    try:
        faults = _fault_injector(args)
    except ValueError as error:
        parser.error(str(error))
    np.set_printoptions(precision=2, suppress=True)
    if args.command == "stream":
        try:
            return _stream_command(args, parser, faults)
        except CheckpointLockError as error:
            print(f"ERROR: {error}", file=sys.stderr)
            return 3
    world, result = _world_and_pipeline(args, faults=faults)
    exit_code = 0
    if args.command in ("overview", "report"):
        _print_overview(world, result)
    if args.command in ("top", "report"):
        _print_top(world, result)
    if args.command in ("clusters", "report"):
        _print_clusters(result)
    if args.command in ("influence", "report"):
        _print_influence(world, result)
    if args.command == "serve-replay":
        exit_code = _serve_replay(world, result, args, faults)
    if _partial_failure(result):
        quarantined = [
            site for report in result.stage_reports for site in report.quarantined
        ]
        print(f"\nWARNING: partial pipeline failure "
              f"(quarantined={quarantined or 'none'}); exiting nonzero")
        exit_code = exit_code or 3
    return exit_code
