"""The benchmark's three workloads over one generated world.

All three run closed-loop from one process and one thread, on the
default serial config.  Each offers the same steps:

* ``setup()`` brings the system to ready and returns the seconds it
  took;
* ``warm_up()`` runs ops whose times are discarded, so that first-use
  costs stay out of every timed pass; it sets up first where a pass
  needs it;
* ``run_pass(record)`` runs one fixed pass of ops on the ready system,
  timing each op and calling ``record(seconds, units)``.  Outputs are
  kept, not checked, so checking stays out of every timed and traced
  section;
* ``check_pass()`` verifies the kept outputs against their reference,
  returns ``(ops, failed_ops, problems)`` and fills ``stats`` with the
  outcome counters that the spans cannot see;
* ``close()`` releases what the workload holds.

``setup_in_pass`` says whether a traced pass starts with ``setup()``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# Layer entry points are called through their modules, so that the
# tracer's patches of those modules apply here too.
import repro.analysis.influence as influence
import repro.core as core
from repro.core.monitor import MemeMonitor
from repro.service import BreakerConfig, MemeMatchService, ServiceConfig
from repro.service.service import OK
from repro.stream import StreamConfig, StreamIngester, state_equals
from repro.utils.retry import RetryPolicy

clock = time.perf_counter

HAWKES_MIN_EVENTS = 10

BURST = 64  # requests per submit_many + drain, and the coalesce window
REQUESTS = 1 << 15  # requests per serve pass
MISS_SHARE = 0.3  # share of uniform-random hashes among the requests

READ = 1024  # events per ingest(): four default-size WAL records per group


class Batch:
    """The paper's offline job: a cold pipeline run plus the influence study.

    One op is one full job with no cache over one world; one pass runs
    the job over each of the worlds in turn.  The job is ready
    once a fresh interpreter has imported the layers it runs, so set-up
    is that import, timed in a child process.  The digest of each world's
    labels, associations and influence totals must equal its entry in
    ``expected``, the digest committed for that world, or where none is
    committed, the digest of the run's first op.
    """

    setup_repeats = 3
    setup_in_pass = False

    def __init__(self, worlds: list, src: Path, expected: list) -> None:
        self.worlds = worlds
        self.src = src
        self.digests = list(expected)
        self.outputs: list = []
        self.stats: dict = {}

    def warm_up(self) -> None:
        """One op, on the first world."""
        self.outputs.append(self._job(self.worlds[0]))

    def _job(self, world):
        result = core.run_pipeline(world)
        study = influence.influence_study(
            result, world.config.horizon_days, min_events=HAWKES_MIN_EVENTS
        )
        return result, study

    def setup(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        start = clock()
        subprocess.run(
            [sys.executable, "-c",
             "import repro.communities, repro.core, repro.analysis"],
            env=env,
            check=True,
            timeout=120,
        )
        return clock() - start

    def run_pass(self, record) -> None:
        for world in self.worlds:
            start = clock()
            output = self._job(world)
            record(clock() - start, len(world.posts))
            self.outputs.append(output)

    def check_pass(self):
        failed, problems, hawkes_failed = 0, [], 0
        for index, (result, study) in enumerate(self.outputs):
            issues = [
                f"world {index}: stage {report.name} {report.status}"
                f" quarantined={report.quarantined}"
                for report in result.stage_reports
                if report.status != "completed" or report.quarantined
            ]
            digest = output_digest(result, study)
            self.digests[index] = self.digests[index] or digest
            if digest != self.digests[index]:
                issues.append(
                    f"world {index}: output digest {digest} != "
                    f"{self.digests[index]}"
                )
            failed += bool(issues)
            problems += issues
            hawkes_failed += len(study.failures)
        self.stats = {"hawkes_failed": hawkes_failed}
        ops = len(self.outputs)
        self.outputs = []
        return ops, failed, problems

    def close(self) -> None:
        pass


def output_digest(result, study) -> str:
    """Digest of cluster labels, associations and influence totals.

    Influence totals are rounded to 1e-6 first, so that a change which
    only reorders floating-point sums keeps the digest.
    """
    digest = hashlib.sha256()
    for community in sorted(result.clusterings):
        digest.update(community.encode())
        digest.update(result.clusterings[community].result.labels.tobytes())
    digest.update(
        np.asarray(result.occurrences.cluster_indices, dtype=np.int64).tobytes()
    )
    # Adding 0.0 turns the -0.0 that rounding can leave into 0.0.
    digest.update((np.round(study.total.expected_events, 6) + 0.0).tobytes())
    digest.update(np.asarray(study.total.event_counts, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def resilient_config() -> ServiceConfig:
    """The serving posture: bounded queue, breaker, deadlines, retries.

    The posture and the request mix in :class:`Serve` are deliberate
    copies of ``resilient_config`` and ``build_stream`` in
    ``benchmarks/bench_service.py``, plus ``coalesce_window``: that
    per-subsystem script is to be folded into this benchmark or deleted,
    and the benchmark must not break when it goes.
    """
    return ServiceConfig(
        max_queue_depth=4096,
        default_deadline_s=30.0,
        retry=RetryPolicy(
            max_retries=2, base_delay=0.01, max_delay=0.25, jitter="full"
        ),
        breaker=BreakerConfig(failure_threshold=5, open_duration_s=0.5),
        coalesce_window=BURST,
    )


class Serve:
    """One client sending bursts through the resilient, coalescing service.

    Set-up is the pipeline run that builds the index plus the service,
    which builds its monitor.  Requests are the posted hashes in timeline
    order, cycled, with a share replaced by uniform-random misses; one op
    is one burst of ``submit_many`` + ``drain``.  Every verdict must equal
    a bare ``classify_batch`` over the same stream and the service stats
    must reconcile.
    """

    setup_repeats = 9
    setup_in_pass = True

    def __init__(self, world, seed: int) -> None:
        self.world = world
        rng = np.random.default_rng(seed)
        posted = np.array([post.phash for post in world.posts], dtype=np.uint64)
        misses = rng.integers(0, 2**64, size=REQUESTS, dtype=np.uint64)
        self.hashes = np.where(
            rng.random(REQUESTS) < MISS_SHARE, misses, np.resize(posted, REQUESTS)
        )
        payloads = [int(value) for value in self.hashes]
        self.bursts = [
            payloads[start : start + BURST] for start in range(0, REQUESTS, BURST)
        ]
        self.result = None
        self.service = None
        self.expected = None
        self.replies: list = []
        self.stats: dict = {}

    def setup(self) -> float:
        start = clock()
        self.result = core.run_pipeline(self.world)
        self.service = MemeMatchService(self.result, config=resilient_config())
        return clock() - start

    def warm_up(self) -> None:
        """One pass, on a service set up first if there is none yet."""
        if self.service is None:
            self.setup()
        self.run_pass(lambda seconds, units: None)

    def run_pass(self, record) -> None:
        service, replies = self.service, []
        for burst in self.bursts:
            start = clock()
            rejected = service.submit_many(burst)
            served = service.drain()
            record(clock() - start, len(burst))
            replies.append((rejected, served))
        self.replies = replies

    def check_pass(self):
        if self.expected is None:
            self.expected = MemeMonitor(self.result).classify_batch(self.hashes)
        failed, position = 0, 0
        for rejected, served in self.replies:
            expected = self.expected[position : position + len(rejected)]
            position += len(rejected)
            failed += not (
                all(reply is None for reply in rejected)
                and len(served) == len(expected)
                and all(
                    reply.status == OK and reply.verdict == verdict
                    for reply, verdict in zip(served, expected)
                )
            )
        problems = (
            [f"{failed} bursts diverged from a bare classify_batch"]
            if failed
            else []
        )
        service = self.service
        if not service.stats.reconciles(pending=service.pending):
            problems.append("service stats do not reconcile")
        self.stats = service.stats.as_dict()
        ops = len(self.replies)
        self.replies = []
        return ops, failed, problems

    def close(self) -> None:
        pass


class Stream:
    """Fsynced group-commit catch-up ingest of whole world timelines.

    One op is one ``ingest()`` of ``READ`` events; one pass streams the
    timeline of each world in turn into a fresh WAL directory of its own.
    Set-up is the construction of an ingester over the directory that
    the first world's whole timeline left behind, closed by
    a forced compaction: lock, WAL open and recovery from the checkpoint
    of the whole timeline, the wait before a restarted ingester takes its
    first op.  The forced compaction leaves no WAL suffix to replay, so
    the recovered work is the whole world on every seed rather than
    whatever followed the pass's last automatic compaction.  After each
    pass every read must have been admitted, and a forced compaction must
    leave a state equal to a cold ``run_pipeline`` over the same events,
    checked for one world per pass in turn.
    """

    setup_repeats = 25
    setup_in_pass = True  # so that a traced pass covers recovery

    def __init__(self, worlds: list, work_dir: Path) -> None:
        self.worlds = worlds
        self.work_dir = work_dir
        self.reads = [
            [world.posts[start : start + READ]
             for start in range(0, len(world.posts), READ)]
            for world in worlds
        ]
        self.recovery_dir: str | None = None
        self.ingesters: list = []
        self.references: list = [None] * len(worlds)
        self.passes_checked = 0
        self.outcomes: list = []
        self.stats: dict = {}

    def _open(self, world, wal_dir: str | None = None) -> StreamIngester:
        config = StreamConfig(
            wal_dir=wal_dir or tempfile.mkdtemp(prefix="wal-", dir=self.work_dir),
            fsync=True,
            group_commit=True,
        )
        return StreamIngester(world, stream=config)

    def setup(self) -> float:
        world = self.worlds[0]
        if self.recovery_dir is None:
            ingester = self._open(world)
            for events in self.reads[0]:
                ingester.ingest(events)
            ingester.compact(force=True)
            ingester.close()
            self.recovery_dir = str(ingester.wal_dir)
        start = clock()
        ingester = self._open(world, self.recovery_dir)
        elapsed = clock() - start
        ingester.close()
        return elapsed

    def warm_up(self) -> None:
        """A set-up: the first one streams the first world's timeline."""
        self.setup()

    def run_pass(self, record) -> None:
        for world, reads in zip(self.worlds, self.reads):
            ingester, outcomes = self._open(world), []
            self.ingesters.append(ingester)
            for events in reads:
                start = clock()
                outcome = ingester.ingest(events)
                record(clock() - start, len(events))
                outcomes.append(outcome)
            self.outcomes.append(outcomes)

    def check_pass(self):
        """Check every pass's admissions, and one world's state in turn.

        The forced compaction and cold run a state check needs cost about
        as much as the ingest they check, so the n-th checked pass checks
        the state of world n modulo the world count only; ingest is
        deterministic, so a divergence shows on every pass.
        """
        ops, failed, problems, buffer_peak = 0, 0, [], 0
        checked = self.passes_checked % len(self.worlds)
        self.passes_checked += 1
        for index, (world, ingester, outcomes, reads) in enumerate(
            zip(self.worlds, self.ingesters, self.outcomes, self.reads)
        ):
            short = sum(
                outcome["admitted"] != len(events)
                for outcome, events in zip(outcomes, reads)
            )
            if short:
                problems.append(f"world {index}: {short} reads not fully admitted")
            if index == checked:
                ingester.compact(force=True)
                if self.references[index] is None:
                    self.references[index] = core.run_pipeline(world)
                if not state_equals(ingester.result(), self.references[index]):
                    problems.append(
                        f"world {index}: streamed state differs from a cold "
                        "run_pipeline"
                    )
                    short = len(outcomes)
            ops += len(outcomes)
            failed += short
            buffer_peak = max(buffer_peak, ingester.buffer.peak_depth)
        self.stats = {"buffer_peak": buffer_peak}
        self.outcomes = []
        self._discard_pass()
        return ops, failed, problems

    def _discard_pass(self) -> None:
        for ingester in self.ingesters:
            ingester.close()
            shutil.rmtree(ingester.wal_dir, ignore_errors=True)
        self.ingesters = []

    def close(self) -> None:
        self._discard_pass()
        if self.recovery_dir is not None:
            shutil.rmtree(self.recovery_dir, ignore_errors=True)
            self.recovery_dir = None
