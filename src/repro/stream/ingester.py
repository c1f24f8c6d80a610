"""Durable streaming ingestion with crash-consistent recovery.

:class:`StreamIngester` consumes an unbounded post stream (a
:class:`repro.stream.EventSource` cursor) and maintains the pipeline's
index/cluster/association state online, on top of the incremental
primitives the batch runner already trusts (each compaction grows the
last compaction's radius graph with the pairs of the hashes new since
it through
:func:`repro.hashing.pairwise.merge_radius_neighbors`, the cache's
subset merge; association of the new posts and of those the medoid
change can move; deterministic DBSCAN re-derivation).

The durability protocol, in order, for every event batch:

1. the batch is appended to the write-ahead log and **fsynced**
   (:class:`repro.stream.wal.WriteAheadLog`);
2. only then is it applied to in-memory state (the appended post
   columns and the per-community sets of hashes seen).  The batches of
   one :meth:`StreamIngester.ingest` are associated against the frozen
   medoids in one call at its end, unless a compaction follows and
   associates them anyway.

A *compaction* (triggered when the unique-hash growth ratio — a bound
on medoid drift — exceeds ``compact_threshold``, or forced) promotes
fresh state: full re-cluster over a radius graph grown from the last
compaction's, annotation of the medoids not seen before, and
re-association (:func:`repro.annotation.association.reassociate`),
then a durable checkpoint (``stream.ckpt``, the ``RPC1`` container from
:func:`repro.utils.io.save_checkpoint`).

Each post is written once, to the WAL, which is never truncated: it is
the post log.  The checkpoint holds only derived state (graphs,
clusterings, annotations, the per-post association) plus the applied
count and the last applied WAL sequence number.  Recovery is therefore:
rebuild the post columns from the WAL records up to that sequence
number, take their association from the last checkpoint (if any),
replay the WAL suffix past it, and continue from the durable event
count — the :class:`EventSource` cursor.  Because every applied step is
deterministic and bit-identical to its cold counterpart, the recovered
state at any compaction point equals a cold batch
:func:`repro.core.run_pipeline` over the same event prefix
(:func:`state_equals` pins this; so do the tests and the
``stream-chaos-smoke`` CI job, through SIGKILLs at every injected
site).

Overload safety comes from a bounded admission buffer under the
:class:`repro.service.admission.AdmissionQueue` watermark rule: shed
events are *not* lost — the cursor re-reads them — they are just
deferred, which is what bounds memory under a producer that outruns the
ingester.

Events travel as :class:`~repro.communities.models.PostTable` slices
end to end: a WAL record is one batch's :meth:`PostTable.to_columns`,
and the applied posts and their association live in column buffers
whose capacity doubles, so a long stream copies each event a bounded
number of times.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.annotation.association import (
    UNASSIGNED,
    AssociationResult,
    associate_hashes,
    reassociate,
)
from repro.annotation.matcher import KYMGallery, annotate_clusters
from repro.communities.models import FRINGE_COMMUNITIES, PostTable
from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    clustering_from_neighbors,
    filter_kym_screenshots,
    replay_gallery_flags,
    screenshot_payload,
)
from repro.core.results import (
    ClusterKey,
    CommunityClustering,
    PipelineResult,
)
from repro.core.runner import build_occurrence_table, medoid_map
from repro.hashing.index import NeighborGraph
from repro.hashing.pairwise import merge_radius_neighbors
from repro.service.admission import AdmissionQueue
from repro.stream.config import StreamConfig
from repro.stream.wal import WALError, WriteAheadLog
from repro.utils.io import (
    CheckpointLock,
    load_checkpoint,
    save_checkpoint,
)

__all__ = ["StreamIngester", "StreamReport", "state_equals"]

_CHECKPOINT_NAME = "stream.ckpt"


@dataclass
class StreamReport:
    """Observability surface of one ingester session.

    Mirrors :class:`repro.core.results.StageReport`'s role for the
    streaming path: counters an operator alerts on, with a one-line
    :meth:`summary` for the CLI.
    """

    events_ingested: int = 0
    events_shed: int = 0
    batches: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    wal_segments: int = 0
    torn_truncated: int = 0
    recoveries: int = 0
    replayed_events: int = 0
    compactions: int = 0
    checkpoint_saves: int = 0
    drift: float = 0.0
    last_compaction_s: float = 0.0

    def summary(self) -> str:
        """One-line human-readable digest (CLI output)."""
        parts = [
            f"stream: ingested={self.events_ingested}",
            f"shed={self.events_shed}",
            f"batches={self.batches}",
            f"wal[records={self.wal_records} bytes={self.wal_bytes} "
            f"segments={self.wal_segments} "
            f"torn={self.torn_truncated}]",
            f"recoveries={self.recoveries}",
            f"replayed={self.replayed_events}",
            f"compactions={self.compactions}",
            f"checkpoints={self.checkpoint_saves}",
            f"drift={self.drift:.3f}",
        ]
        if self.last_compaction_s:
            parts.append(f"last_compaction={self.last_compaction_s:.2f}s")
        return "  ".join(parts)


def state_equals(a: PipelineResult, b: PipelineResult) -> bool:
    """Bit-level equality of two pipeline states.

    The streamed-equals-batch acceptance invariant: clusterings
    (unique hashes, counts, labels, medoids), the annotated-cluster
    catalogue, and the occurrence table must all match exactly.
    """
    if sorted(a.clusterings) != sorted(b.clusterings):
        return False
    for community in a.clusterings:
        x, y = a.clusterings[community], b.clusterings[community]
        if not (
            np.array_equal(x.unique_hashes, y.unique_hashes)
            and np.array_equal(x.counts, y.counts)
            and np.array_equal(x.result.labels, y.result.labels)
        ):
            return False
        if {int(k): int(v) for k, v in x.medoids.items()} != {
            int(k): int(v) for k, v in y.medoids.items()
        }:
            return False
    if a.cluster_keys != b.cluster_keys:
        return False
    if set(a.annotations) != set(b.annotations):
        return False
    for key in a.annotations:
        x, y = a.annotations[key], b.annotations[key]
        if (
            int(x.medoid_hash),
            x.representative,
            bool(x.is_racist),
            bool(x.is_politics),
        ) != (
            int(y.medoid_hash),
            y.representative,
            bool(y.is_racist),
            bool(y.is_politics),
        ):
            return False
    ox, oy = a.occurrences, b.occurrences
    return (
        ox.posts == oy.posts
        and np.array_equal(ox.cluster_indices, oy.cluster_indices)
        and ox.entry_names == oy.entry_names
        and np.array_equal(ox.is_racist, oy.is_racist)
        and np.array_equal(ox.is_politics, oy.is_politics)
    )


class _EventBuffer(AdmissionQueue):
    """The ingester's admission buffer: pending events as one post table.

    Depth counts events, and a burst is admitted by the queue's
    watermark rule (:meth:`AdmissionQueue.admissible`), so admission
    never builds a row per event.
    """

    def __init__(self, **bounds) -> None:
        super().__init__(**bounds)
        self._items = PostTable.empty()

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, events: PostTable) -> int:
        """Enqueue the admissible prefix of ``events``; returns its length."""
        admitted = self.admissible(len(events))
        self._items = PostTable.concat([self._items, events[:admitted]])
        self.peak_depth = max(self.peak_depth, len(self._items))
        return admitted

    def pop_batch(self, size: int) -> PostTable:
        """Dequeue up to ``size`` of the oldest events."""
        batch, self._items = self._items[:size], self._items[size:]
        return batch

    def clear(self) -> None:
        self._items = PostTable.empty()


class _ColumnBuffer:
    """Aligned 1-D columns that grow by appending, capacity doubling.

    ``buffer[name]`` is a view of the filled prefix.  An append copies
    only its own rows unless the capacity runs out, and then every
    column is copied once into twice the space, so ``k`` appends
    reallocate O(log k) times (counted in :attr:`reallocations`).
    Views taken earlier stay valid: rows past their end are the only
    ones an append writes.
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self._data = {name: np.asarray(values) for name, values in columns.items()}
        self.size = len(next(iter(self._data.values())))
        self.reallocations = 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name][: self.size]

    def view(self) -> dict[str, np.ndarray]:
        return {name: data[: self.size] for name, data in self._data.items()}

    def __setitem__(self, name: str, values: np.ndarray) -> None:
        """Overwrite a column's filled prefix."""
        self._data[name][: self.size] = values

    def append(self, columns: dict[str, np.ndarray]) -> None:
        end = self.size + len(next(iter(columns.values())))
        capacity = len(next(iter(self._data.values())))
        if end > capacity:
            capacity = max(end, 2 * capacity)
            for name, data in self._data.items():
                grown = np.empty(capacity, dtype=data.dtype)
                grown[: self.size] = data[: self.size]
                self._data[name] = grown
            self.reallocations += 1
        for name, values in columns.items():
            self._data[name][self.size : end] = values
        self.size = end


def _with_association(
    posts: PostTable, association: AssociationResult | None = None
) -> dict[str, np.ndarray]:
    """The columns of ``posts`` plus their association; unassociated
    (no cluster, distance -1, untied) without one."""
    if association is None:
        n = len(posts)
        association = AssociationResult(
            cluster_ids=np.full(n, UNASSIGNED, dtype=np.int64),
            distances=np.full(n, -1, dtype=np.int64),
            tied=np.zeros(n, dtype=bool),
        )
    return {
        **posts.to_columns(),
        "assoc_ids": association.cluster_ids,
        "assoc_dists": association.distances,
        "assoc_tied": association.tied,
    }


def _narrow(values: np.ndarray) -> np.ndarray:
    """An integer array in the narrowest signed dtype holding its values."""
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
            return values.astype(dtype)
    return values


def _wide(values: np.ndarray) -> np.ndarray:
    """A checkpointed integer array back in the ``int64`` the state uses."""
    return values.astype(np.int64)


def _resized_graph(graph: NeighborGraph, resize) -> NeighborGraph:
    return NeighborGraph(indptr=resize(graph.indptr), indices=resize(graph.indices))


def _resized_clustering(
    clustering: CommunityClustering, resize
) -> CommunityClustering:
    return replace(
        clustering,
        counts=resize(clustering.counts),
        result=replace(clustering.result, labels=resize(clustering.result.labels)),
    )


def _columns_of(record) -> dict[str, np.ndarray]:
    """The post columns of one WAL record, or a :class:`WALError` for a
    record written in the format before post tables."""
    columns = record.get("posts") if isinstance(record, dict) else None
    if not isinstance(columns, dict):
        raise WALError(
            "WAL record holds a list of Post rows: the pre-columnar format "
            "written before post tables. Replay reads PostTable column "
            "records only; re-ingest into an empty WAL directory."
        )
    return columns


def _concat_columns(records: list[dict[str, np.ndarray]]) -> PostTable:
    """The posts of many WAL records as one table, each column joined once."""
    if not records:
        return PostTable.empty()
    return PostTable.from_columns(
        {
            name: np.concatenate([columns[name] for columns in records])
            for name in records[0]
        }
    )


class StreamIngester:
    """WAL-backed online pipeline state over an unbounded post stream.

    Parameters
    ----------
    world:
        The static context (KYM site, template library, world config for
        the seed).  Events are **not** read from ``world.posts`` — they
        arrive only through :meth:`ingest`, typically pulled from
        ``world.event_source()`` at :attr:`n_events`.
    config:
        Pipeline configuration; must match across sessions sharing a
        WAL directory (the checkpoint fingerprint pins it).
    stream:
        The :class:`repro.stream.StreamConfig` knobs.
    faults:
        Optional :class:`repro.core.faults.FaultInjector`; consulted at
        ``stream:ingest`` / ``stream:wal`` / ``stream:compact``.

    Construction acquires the WAL directory's
    :class:`repro.utils.io.CheckpointLock` and performs recovery:
    torn-tail truncation inside the WAL scan, checkpoint load, the
    posts it covers rebuilt from the WAL, WAL suffix replay.  Always :meth:`close` (or use as a context manager)
    to release the lock.
    """

    def __init__(
        self,
        world,
        *,
        stream: StreamConfig,
        config: PipelineConfig | None = None,
        faults=None,
    ) -> None:
        self.world = world
        self.config = config or PipelineConfig()
        self.stream = stream
        self.faults = faults
        self.report = StreamReport()
        self.wal_dir = Path(stream.wal_dir)
        self.buffer = _EventBuffer(
            max_depth=stream.max_buffer, shed_watermark=stream.shed_watermark
        )
        # --- online state ---
        # The applied posts' columns plus their association (cluster
        # index, distance and tie bit per post), grown per batch; the
        # first ``_associated`` rows hold their association.
        self._columns = _ColumnBuffer(_with_association(PostTable.empty()))
        self._associated = 0
        # Per fringe community: the hashes seen so far (they drive the
        # drift count), and the radius graph over the unique hashes of
        # the last compaction, which the next one grows.
        self._seen: dict[str, set[int]] = {c: set() for c in FRINGE_COMMUNITIES}
        self._graphs: dict[str, NeighborGraph] = {}
        self._annotation_memo: dict[int, object] = {}
        self._gallery: KYMGallery | None = None
        self._screenshot: dict | None = None
        self._clusterings: dict[str, CommunityClustering] | None = None
        self._annotations: dict[ClusterKey, object] = {}
        self._cluster_keys: list[ClusterKey] = []
        self._medoid_by_global: dict[int, int] = {}
        self._applied_seq = -1
        self._compact_base_events = 0
        self._compact_base_unique = 0
        self._new_unique = 0
        self.lock = CheckpointLock(self.wal_dir)
        self.lock.acquire()
        try:
            self._recover()
        except BaseException:
            self.lock.release()
            raise

    # ------------------------------------------------------------------
    # Identity and chaos plumbing
    # ------------------------------------------------------------------

    def _seed(self) -> int:
        world_config = getattr(self.world, "config", None)
        return int(getattr(world_config, "seed", 0) or 0)

    def _fingerprint(self) -> str:
        """Bind the checkpoint to (world identity, pipeline config).

        Unlike the batch runner's per-stage fingerprint this must *not*
        include the post count — the stream's whole point is that it
        grows — but a different seed, scale, or pipeline config renames
        the run and rejects the stale checkpoint.
        """
        world_config = getattr(self.world, "config", None)
        return (
            "stream-v6|"
            f"seed={getattr(world_config, 'seed', None)}"
            f",events_unit={getattr(world_config, 'events_unit', None)}"
            f",noise_scale={getattr(world_config, 'noise_scale', None)}"
            f"|{self.config!r}"
        )

    def _fire(self, site: str) -> None:
        """Consult the chaos schedule at an ingester site."""
        if self.faults is None:
            return
        directive = self.faults.stream_directive(site)
        if directive is None:
            return
        if directive.action == "hang":
            time.sleep(directive.delay_s)
        elif directive.action == "kill":
            os._exit(17)

    def _wal_chaos(self):
        if self.faults is None:
            return None
        return self.faults.stream_directive("stream:wal")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        self.wal = WriteAheadLog(
            self.wal_dir,
            segment_max_bytes=self.stream.segment_max_bytes,
            fsync=self.stream.fsync,
            chaos=self._wal_chaos if self.faults is not None else None,
        )
        self.report.torn_truncated = self.wal.torn_truncated
        checkpoint_path = self.wal_dir / _CHECKPOINT_NAME
        had_state = checkpoint_path.exists() or self.wal.next_seq > 0
        payload = None
        if checkpoint_path.exists():
            payload = load_checkpoint(
                checkpoint_path, fingerprint=self._fingerprint()
            )
        checkpointed = -1 if payload is None else int(payload["applied_seq"])
        logged, suffix = [], []
        for seq, record in self.wal.replay():
            columns = _columns_of(record)
            if seq <= checkpointed:
                logged.append(columns)
            else:
                suffix.append((seq, PostTable.from_columns(columns)))
        if payload is not None:
            self._restore(payload, _concat_columns(logged))
        for seq, batch in suffix:
            self._apply_batch(batch, seq)
        self._associate_pending()
        self.report.replayed_events = sum(len(batch) for _, batch in suffix)
        self.report.wal_segments = self.wal.n_segments
        self.report.wal_bytes = self.wal.total_bytes
        if had_state:
            self.report.recoveries = 1

    def _restore(self, payload: dict, posts: PostTable) -> None:
        if len(posts) != payload["n_events"]:
            raise WALError(
                f"{self.wal_dir}: the WAL holds {len(posts)} posts up to "
                f"record {payload['applied_seq']}, the checkpoint "
                f"{payload['n_events']}; the post log is incomplete"
            )
        n = len(posts)
        self._columns = _ColumnBuffer(
            _with_association(
                posts,
                AssociationResult(
                    cluster_ids=_wide(payload["assoc_ids"]),
                    distances=_wide(payload["assoc_dists"]),
                    tied=np.unpackbits(payload["assoc_tied"], count=n).view(bool),
                ),
            )
        )
        self._associated = n
        self._screenshot = payload["screenshot"]
        self._clusterings = {
            community: _resized_clustering(clustering, _wide)
            for community, clustering in payload["clusterings"].items()
        }
        self._graphs = {
            community: _resized_graph(graph, _wide)
            for community, graph in payload["graphs"].items()
        }
        self._annotations = payload["annotations"]
        self._cluster_keys = payload["cluster_keys"]
        self._medoid_by_global = medoid_map(self._annotations, self._cluster_keys)
        self._applied_seq = int(payload["applied_seq"])
        # A checkpoint is written only by a compaction, which has just
        # clustered every applied post.
        self._seen = {
            community: set(clustering.unique_hashes.tolist())
            for community, clustering in self._clusterings.items()
        }
        self._rebase_drift()
        self._annotation_memo = {
            int(annotation.medoid_hash): annotation
            for annotation in self._annotations.values()
        }
        # The classifier mode re-flags gallery images in place, so a
        # recovered session re-applies its recorded decisions before
        # annotating.
        flags = (self._screenshot or {}).get("gallery_flags")
        if flags is not None:
            replay_gallery_flags(self.world.kym_site, flags)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Durably applied event count — the :class:`EventSource` cursor."""
        return self._columns.size

    @property
    def posts(self) -> PostTable:
        """The applied posts (column views; later appends leave them be)."""
        return PostTable.from_columns(self._columns.view())

    def _rebase_drift(self) -> None:
        """Measure drift from the applied posts a compaction just covered."""
        self._compact_base_events = self.n_events
        self._compact_base_unique = sum(map(len, self._seen.values()))
        self._new_unique = 0

    def drift(self) -> float:
        """Unique-hash growth since the last compaction (medoid-drift bound).

        Only *new unique hashes* can move a medoid or form a cluster,
        so their count relative to the corpus at the last compaction
        bounds how far the frozen medoid set can have drifted from what
        a fresh clustering would promote.  Infinite before the first
        compaction (any state is fresher than none).
        """
        if self._compact_base_events == 0:
            return float("inf") if self.n_events else 0.0
        return self._new_unique / max(1, self._compact_base_unique)

    def ingest(self, events: PostTable) -> dict:
        """Offer a table of events to the bounded buffer, drain, maybe compact.

        The buffer admits the longest prefix of ``events`` it has room
        for.  Returns ``{"admitted": int, "shed": int}``.  Shed events
        are *deferred, not lost*: the caller re-reads them from the
        source at :attr:`n_events` — which is why shedding cannot break
        the streamed-equals-batch invariant.
        """
        admitted = self.buffer.offer(events)
        shed = len(events) - admitted
        self.report.events_shed += shed
        try:
            self._drain()
            self.compact()
        except BaseException:
            # Admitted-but-unapplied events must not linger: the caller
            # recovers by re-reading the cursor, and anything left here
            # would then be applied twice.  Dropping them is safe — they
            # were never WAL-appended, so the cursor still covers them.
            self.buffer.clear()
            raise
        finally:
            # What was applied gets its association even when a later
            # chunk or the compaction failed; a compaction that ran has
            # associated everything already.
            self._associate_pending()
        return {"admitted": admitted, "shed": shed}

    def _drain(self) -> None:
        """Pop the buffer in ``batch_size`` chunks and commit them.

        Every chunk is its own WAL record, so replay and apply
        granularity never change.  With ``group_commit`` all chunks go
        down as one commit group (a single buffered write and a single
        fsync); otherwise each chunk is a group of one.  Durability
        before application: no chunk is applied until its group's fsync
        returns, so a crash between the two replays it instead of
        losing it, and a crash mid-group truncates the whole group on
        recovery, replaying nothing of it (the events were never
        acknowledged).  The ``stream:ingest`` chaos site fires once per
        chunk before its group is written.
        """
        chunks = []
        while len(self.buffer):
            chunks.append(self.buffer.pop_batch(self.stream.batch_size))
        size = max(1, len(chunks)) if self.stream.group_commit else 1
        for start in range(0, len(chunks), size):
            group = chunks[start : start + size]
            for _ in group:
                self._fire("stream:ingest")
            seqs = self.wal.append_many(
                [{"posts": batch.to_columns()} for batch in group]
            )
            self.report.wal_records += len(group)
            for batch, seq in zip(group, seqs):
                self._apply_batch(batch, seq)
        self.report.wal_segments = self.wal.n_segments
        self.report.wal_bytes = self.wal.total_bytes
        self.report.drift = min(self.drift(), float(self.n_events))

    def _apply_batch(self, batch: PostTable, seq: int) -> None:
        """Apply one durable batch to the online state.

        Appends the posts to the columns and counts, per fringe
        community, the hashes not seen before (the drift numerator).
        No neighbourhood is joined here: the next compaction grows its
        graph from the posts.  The posts wait for
        :meth:`_associate_pending` or a compaction for their
        association.
        """
        rows = batch.group_by_community()
        for community in FRINGE_COMMUNITIES:
            seen = self._seen[community]
            before = len(seen)
            seen.update(batch.phash[rows[community]].tolist())
            self._new_unique += len(seen) - before
        self._columns.append(_with_association(batch))
        self._applied_seq = seq
        self.report.events_ingested += len(batch)
        self.report.batches += 1

    def _associate_pending(self) -> None:
        """Associate the applied posts that have none, in one call,
        against the frozen medoid set from the last compaction."""
        start, end = self._associated, self.n_events
        if start == end:
            return
        if self._medoid_by_global:
            suffix = associate_hashes(
                self._columns["phash"][start:],
                self._medoid_by_global,
                theta=self.config.theta,
            )
            self._columns["assoc_ids"][start:] = suffix.cluster_ids
            self._columns["assoc_dists"][start:] = suffix.distances
        self._associated = end

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, force: bool = False) -> bool:
        """Promote fresh state and checkpoint it.

        Full re-cluster over each community's radius graph, grown from
        the last compaction's (:meth:`_cluster_community`), fresh
        annotation (memoised per medoid hash — the lookup is a pure
        function of the hash given a fixed site/θ/exclude set),
        re-association against the promoted medoids
        (:func:`~repro.annotation.association.reassociate`: the posts
        since the last compaction, those whose winner's hash left the
        medoid set and those tied at their distance are compared with
        every medoid, the rest with the added medoids only), then a
        durable checkpoint of the derived state.  The WAL keeps every
        post, so a crash anywhere leaves the old checkpoint or the new
        one, each beside the whole post log.

        Returns ``True`` when a compaction ran.
        """
        if not self.n_events:
            return False
        if not force and self.drift() <= self.stream.compact_threshold:
            return False
        self._fire("stream:compact")
        started = time.perf_counter()
        if self._screenshot is None:
            self._screenshot = screenshot_payload(
                self.world.kym_site,
                self.config.screenshot_filter,
                *filter_kym_screenshots(
                    self.world.kym_site,
                    self.config,
                    seed=self._seed(),
                    library=getattr(self.world, "library", None),
                ),
            )
        exclude = self._screenshot["exclude"]
        clusterings, graphs = {}, {}
        for community in FRINGE_COMMUNITIES:
            clusterings[community], graphs[community] = self._cluster_community(
                community
            )
        annotations: dict[ClusterKey, object] = {}
        cluster_keys: list[ClusterKey] = []
        for community in FRINGE_COMMUNITIES:
            community_annotations = self._annotate_community(
                clusterings[community].medoids, exclude
            )
            for cluster_id, annotation in sorted(community_annotations.items()):
                key = ClusterKey(community, cluster_id)
                annotations[key] = annotation
                cluster_keys.append(key)
        medoid_by_global = medoid_map(annotations, cluster_keys)
        base = self._compact_base_events
        association = reassociate(
            self._columns["phash"],
            AssociationResult(
                cluster_ids=self._columns["assoc_ids"][:base],
                distances=self._columns["assoc_dists"][:base],
                tied=self._columns["assoc_tied"][:base],
            ),
            self._medoid_by_global,
            medoid_by_global,
            theta=self.config.theta,
        )
        self._clusterings = clusterings
        self._graphs = graphs
        self._annotations = annotations
        self._cluster_keys = cluster_keys
        self._medoid_by_global = medoid_by_global
        self._columns["assoc_ids"] = association.cluster_ids
        self._columns["assoc_dists"] = association.distances
        self._columns["assoc_tied"] = association.tied
        self._associated = self.n_events
        self._rebase_drift()
        self._save_checkpoint()
        self.report.compactions += 1
        self.report.drift = 0.0
        self.report.last_compaction_s = time.perf_counter() - started
        return True

    def _cluster_community(
        self, community: str
    ) -> tuple[CommunityClustering, NeighborGraph]:
        """Steps 2-3 over the community's applied posts, and their graph.

        The posts applied since the last compaction merge their unique
        hashes and counts into its, and
        :func:`repro.hashing.pairwise.merge_radius_neighbors` grows its
        graph with the pairs of the new hashes, bit-identical to a cold
        join; labels and medoids are re-derived from it exactly as the
        batch runner's cached path does.
        """
        eps = self.config.clustering_eps
        old = (self._clusterings or {}).get(community)
        old_unique = np.empty(0, np.uint64) if old is None else old.unique_hashes
        posts = self.posts[self._compact_base_events :]
        unique, inverse = np.unique(
            np.concatenate([old_unique, posts.phash[posts.in_community(community)]]),
            return_inverse=True,
        )
        counts = np.bincount(inverse[old_unique.size :], minlength=unique.size)
        if old is not None:
            counts[inverse[: old_unique.size]] += old.counts
        graph = merge_radius_neighbors(
            old_unique, self._graphs.get(community, []), unique, eps
        )
        clustering = clustering_from_neighbors(
            community, unique, counts, graph, self.config
        )
        return clustering, graph

    def _annotate_community(
        self, medoids: dict[int, np.uint64], exclude
    ) -> dict[int, object]:
        """Annotate one community's medoids through the per-hash memo.

        A :class:`~repro.annotation.matcher.ClusterAnnotation` is a pure
        function of the medoid hash for a fixed (KYM site, θ, exclude
        set) — all fixed for a stream session (gallery flags are
        replayed before any annotation on recovery), so the gallery is
        flattened once per session and only never-seen medoid hashes
        pay the lookup; cached entries
        are re-keyed to the new cluster id.  Medoids with no matching
        entry are memoised as ``None`` (annotate_clusters drops them)
        so they are not re-queried every compaction either.
        """
        missing = {
            cluster_id: medoid
            for cluster_id, medoid in medoids.items()
            if int(medoid) not in self._annotation_memo
        }
        if missing:
            if self._gallery is None:
                self._gallery = KYMGallery(
                    self.world.kym_site,
                    theta=self.config.theta,
                    exclude_screenshots=exclude,
                )
            fresh = annotate_clusters(missing, self._gallery)
            for cluster_id, medoid in missing.items():
                annotation = fresh.get(cluster_id)
                self._annotation_memo[int(medoid)] = annotation
        out: dict[int, object] = {}
        for cluster_id, medoid in medoids.items():
            annotation = self._annotation_memo[int(medoid)]
            if annotation is None:
                continue
            if annotation.cluster_id != cluster_id:
                annotation = replace(annotation, cluster_id=cluster_id)
            out[cluster_id] = annotation
        return out

    def _save_checkpoint(self) -> None:
        # Derived state only: the posts are in the WAL up to
        # ``applied_seq``.  Each community's graph is its CSR arrays
        # over the unique hashes its clustering holds.  Integer arrays
        # go down in the narrowest dtype that holds them and tie bits
        # packed, so the file grows by far less than the posts do.
        payload = {
            "graphs": {
                community: _resized_graph(graph, _narrow)
                for community, graph in self._graphs.items()
            },
            "screenshot": self._screenshot,
            "clusterings": {
                community: _resized_clustering(clustering, _narrow)
                for community, clustering in self._clusterings.items()
            },
            "annotations": self._annotations,
            "cluster_keys": self._cluster_keys,
            "assoc_ids": _narrow(self._columns["assoc_ids"]),
            "assoc_dists": _narrow(self._columns["assoc_dists"]),
            "assoc_tied": np.packbits(self._columns["assoc_tied"]),
            "n_events": self.n_events,
            "applied_seq": self._applied_seq,
        }
        save_checkpoint(
            self.wal_dir / _CHECKPOINT_NAME,
            payload,
            fingerprint=self._fingerprint(),
        )
        self.report.checkpoint_saves += 1

    # ------------------------------------------------------------------
    # Results and lifecycle
    # ------------------------------------------------------------------

    def result(self) -> PipelineResult:
        """The current online state as a :class:`PipelineResult`.

        At a compaction point this is bit-identical to a cold batch run
        over the same event prefix; between compactions the clusters
        are the frozen set with suffix-associated occurrences (the
        online serving view).
        """
        if self._clusterings is not None:
            clusterings = dict(self._clusterings)
        else:
            clusterings = {
                community: self._cluster_community(community)[0]
                for community in FRINGE_COMMUNITIES
            }
        association = AssociationResult(
            cluster_ids=self._columns["assoc_ids"],
            distances=self._columns["assoc_dists"],
        )
        occurrences = build_occurrence_table(
            self.posts, self._annotations, self._cluster_keys, association
        )
        screenshot = self._screenshot or {}
        return PipelineResult(
            clusterings=clusterings,
            annotations=dict(self._annotations),
            cluster_keys=list(self._cluster_keys),
            occurrences=occurrences,
            screenshot_report=screenshot.get("report"),
            stage_reports=[],
        )

    def close(self) -> None:
        """Release the WAL handle and the checkpoint lock (idempotent)."""
        self.wal.close()
        self.lock.release()

    def __enter__(self) -> "StreamIngester":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
