"""Streaming ingestion: the streamed-equals-batch acceptance invariant.

The pinned contract: at every compaction point — and after any single
crash/recovery — the ingester's state is bit-identical to a cold batch
:func:`repro.core.run_pipeline` over the same event prefix.  Plus the
supporting machinery: backpressure shedding with cursor re-read,
fault-site plumbing, config validation, lock exclusion, and the
:class:`StreamReport` observability surface.
"""

import math
import os

import numpy as np
import pytest

from repro.annotation.association import associate_hashes
from repro.communities import SyntheticWorld, WorldConfig
from repro.core import run_pipeline
from repro.core.config import PipelineConfig
from repro.core.faults import STREAM_SITES, Fault, FaultInjector
from repro.hashing.pairwise import radius_neighbors
from repro.stream import (
    EventSource,
    PrefixWorld,
    StreamConfig,
    StreamIngester,
    WALError,
    WriteAheadLog,
    state_equals,
)
from repro.utils.io import (
    CheckpointLockError,
    StaleCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.retry import TransientError


@pytest.fixture(scope="module")
def stream_world():
    return SyntheticWorld.generate(
        WorldConfig(seed=3, events_unit=12.0, noise_scale=0.5)
    )


@pytest.fixture(scope="module")
def batch_result(stream_world):
    return run_pipeline(stream_world)


def _config(tmp_path, **overrides):
    kwargs = dict(
        wal_dir=tmp_path, batch_size=50, compact_threshold=0.05, fsync=False
    )
    kwargs.update(overrides)
    return StreamConfig(**kwargs)


def _run_to_end(ingester, source, chunk=50, limit=None):
    limit = source.n_events if limit is None else limit
    while ingester.n_events < limit:
        ingester.ingest(
            source.read(ingester.n_events, min(chunk, limit - ingester.n_events))
        )


def _crash(ingester):
    """Abandon without close(): drop the fd, leave lock and state behind."""
    ingester.wal.close()
    os.remove(os.path.join(str(ingester.wal_dir), ".lock"))


class TestEventSource:
    def test_cursor_read(self, stream_world):
        source = stream_world.event_source()
        assert isinstance(source, EventSource)
        first = source.read(0, 10)
        assert first == stream_world.posts[:10]
        assert list(first) == [stream_world.posts[i] for i in range(10)]
        assert len(source.read(source.n_events, 10)) == 0

    def test_read_validation(self, stream_world):
        source = stream_world.event_source()
        with pytest.raises(ValueError):
            source.read(-1, 10)
        with pytest.raises(ValueError):
            source.read(0, 0)

    def test_batches_cover_everything(self, stream_world):
        source = stream_world.event_source()
        total = sum(len(batch) for batch in source.batches(0, 64))
        assert total == source.n_events

    def test_prefix_world(self, stream_world):
        prefix = PrefixWorld(stream_world, 100)
        assert len(prefix.posts) == 100
        assert prefix.kym_site is stream_world.kym_site
        assert prefix.config is stream_world.config
        with pytest.raises(ValueError):
            PrefixWorld(stream_world, len(stream_world.posts) + 1)


class TestStreamedEqualsBatch:
    def test_full_stream_bit_identical(
        self, tmp_path, stream_world, batch_result
    ):
        with StreamIngester(
            stream_world, stream=_config(tmp_path)
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source())
            ingester.compact(force=True)
            result = ingester.result()
            report = ingester.report
        assert state_equals(result, batch_result)
        assert report.events_ingested == len(stream_world.posts)
        assert report.events_shed == 0
        assert report.compactions >= 1
        assert report.checkpoint_saves == report.compactions

    def test_mid_stream_compaction_matches_prefix_batch(
        self, tmp_path, stream_world
    ):
        n_prefix = 400
        with StreamIngester(
            stream_world,
            stream=_config(tmp_path, compact_threshold=100.0),
        ) as ingester:
            _run_to_end(
                ingester, stream_world.event_source(), limit=n_prefix
            )
            ingester.compact(force=True)
            result = ingester.result()
        prefix_batch = run_pipeline(PrefixWorld(stream_world, n_prefix))
        assert state_equals(result, prefix_batch)

    def test_drift_triggers_compaction_automatically(
        self, tmp_path, stream_world
    ):
        with StreamIngester(
            stream_world, stream=_config(tmp_path, compact_threshold=0.01)
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=600)
            eager = ingester.report.compactions
        assert eager > 1  # beyond the bootstrap compaction

    def test_high_threshold_compacts_only_at_bootstrap(
        self, tmp_path, stream_world
    ):
        with StreamIngester(
            stream_world, stream=_config(tmp_path, compact_threshold=100.0)
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=600)
            assert ingester.report.compactions == 1
            assert ingester.drift() <= 100.0


class TestGroupCommit:
    """Group-commit drain: identical state, fewer fsyncs."""

    def test_group_commit_bit_identical_to_batch(
        self, tmp_path, stream_world, batch_result
    ):
        with StreamIngester(
            stream_world,
            stream=_config(tmp_path, group_commit=True),
        ) as ingester:
            # chunk > batch_size so each drain commits a multi-frame
            # group (200 events -> 4 frames, one fsync).
            _run_to_end(ingester, stream_world.event_source(), chunk=200)
            ingester.compact(force=True)
            result = ingester.result()
            report = ingester.report
        assert state_equals(result, batch_result)
        assert report.events_ingested == len(stream_world.posts)

    def test_group_commit_same_wal_records_as_ungrouped(
        self, tmp_path, stream_world
    ):
        grouped_dir = tmp_path / "grouped"
        single_dir = tmp_path / "single"
        counts = {}
        for name, directory, grouped in (
            ("grouped", grouped_dir, True),
            ("single", single_dir, False),
        ):
            with StreamIngester(
                stream_world,
                stream=_config(
                    directory, compact_threshold=100.0, group_commit=grouped
                ),
            ) as ingester:
                _run_to_end(
                    ingester,
                    stream_world.event_source(),
                    chunk=200,
                    limit=400,
                )
                counts[name] = ingester.report.wal_records
        # Same replay granularity either way: one record per
        # batch_size chunk; only the fsync cadence differs.
        assert counts["grouped"] == counts["single"]

    def test_group_commit_recovery_bit_identical(
        self, tmp_path, stream_world
    ):
        source = stream_world.event_source()
        config = _config(
            tmp_path, compact_threshold=100.0, group_commit=True
        )
        ingester = StreamIngester(stream_world, stream=config)
        _run_to_end(ingester, source, chunk=200, limit=400)
        _crash(ingester)
        with StreamIngester(stream_world, stream=config) as recovered:
            assert recovered.n_events == 400
            assert recovered.report.recoveries == 1
            recovered.compact(force=True)
            result = recovered.result()
        prefix_batch = run_pipeline(PrefixWorld(stream_world, 400))
        assert state_equals(result, prefix_batch)


class TestRecovery:
    def test_wal_only_recovery(self, tmp_path, stream_world):
        source = stream_world.event_source()
        config = _config(tmp_path, compact_threshold=100.0)
        ingester = StreamIngester(stream_world, stream=config)
        _run_to_end(ingester, source, limit=300)
        n_before = ingester.n_events
        applied_before = ingester._applied_seq
        _crash(ingester)
        with StreamIngester(stream_world, stream=config) as recovered:
            assert recovered.n_events == n_before
            assert recovered._applied_seq == applied_before
            assert recovered.report.recoveries == 1
            assert recovered.report.replayed_events > 0

    def test_checkpoint_plus_wal_recovery_stays_bit_identical(
        self, tmp_path, stream_world, batch_result
    ):
        source = stream_world.event_source()
        config = _config(tmp_path)
        ingester = StreamIngester(stream_world, stream=config)
        _run_to_end(ingester, source, limit=500)
        ingester.compact(force=True)  # durable checkpoint at 500
        _run_to_end(ingester, source, limit=700)  # WAL suffix past it
        n_before = ingester.n_events
        _crash(ingester)
        with StreamIngester(stream_world, stream=config) as recovered:
            assert recovered.n_events == n_before
            assert recovered.report.recoveries == 1
            _run_to_end(recovered, source)
            recovered.compact(force=True)
            result = recovered.result()
        assert state_equals(result, batch_result)

    def test_recovery_compaction_point_matches_prefix_batch(
        self, tmp_path, stream_world
    ):
        source = stream_world.event_source()
        config = _config(tmp_path, compact_threshold=100.0)
        ingester = StreamIngester(stream_world, stream=config)
        _run_to_end(ingester, source, limit=350)
        _crash(ingester)
        with StreamIngester(stream_world, stream=config) as recovered:
            recovered.compact(force=True)
            result = recovered.result()
        prefix_batch = run_pipeline(PrefixWorld(stream_world, 350))
        assert state_equals(result, prefix_batch)

    def test_mid_stream_recovery_equals_uninterrupted_state(
        self, tmp_path, stream_world
    ):
        # No forced compaction: the last automatic compaction's
        # checkpoint, the posts rebuilt from the WAL and the suffix
        # replayed past it give back the uninterrupted state, the
        # suffix's association against the frozen medoids included.
        source = stream_world.event_source()
        config = _config(tmp_path, compact_threshold=0.2)
        ingester = StreamIngester(stream_world, stream=config)
        _run_to_end(ingester, source, limit=730, chunk=70)
        expected = ingester.result()
        assert ingester.report.compactions >= 2
        _crash(ingester)
        with StreamIngester(stream_world, stream=config) as recovered:
            assert recovered.report.replayed_events > 0
            assert state_equals(recovered.result(), expected)

    def test_recovery_restores_association_and_tie_bits(self, tmp_path):
        # The checkpoint narrows the association columns and packs the
        # tie bits; recovery must give back exactly what the compaction
        # computed, tie bits included, for the next re-association to
        # send every tied post to the full comparison.  Seed 1 is a
        # small world whose stream ends with tied posts.
        world = SyntheticWorld.generate(
            WorldConfig(seed=1, events_unit=12.0, noise_scale=0.5)
        )
        config = _config(tmp_path, compact_threshold=0.2)
        ingester = StreamIngester(world, stream=config)
        _run_to_end(ingester, world.event_source())
        ingester.compact(force=True)
        expected = {
            name: ingester._columns[name].copy()
            for name in ("assoc_ids", "assoc_dists", "assoc_tied")
        }
        assert expected["assoc_tied"].any()
        _crash(ingester)
        with StreamIngester(world, stream=config) as recovered:
            for name, column in expected.items():
                assert recovered._columns[name].dtype == column.dtype, name
                assert np.array_equal(recovered._columns[name], column), name

    def test_checkpoint_without_its_posts_fails_loudly(
        self, tmp_path, stream_world
    ):
        # The checkpoint holds no posts: a WAL that lost the records it
        # covers cannot be recovered from, and must say so.
        with StreamIngester(stream_world, stream=_config(tmp_path)) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=200)
            ingester.compact(force=True)
        for segment in tmp_path.glob("wal-*.seg"):
            segment.unlink()
        with pytest.raises(WALError, match="post log is incomplete"):
            StreamIngester(stream_world, stream=_config(tmp_path))
        assert not (tmp_path / ".lock").exists()

    @pytest.mark.parametrize("failing", ["wal", "compact"])
    def test_failed_ingest_leaves_applied_posts_associated(
        self, tmp_path, stream_world, monkeypatch, failing
    ):
        # An ingest that raises after applying some of its chunks (a
        # later WAL append failed, or the compaction did) still
        # associates what it applied, against the frozen medoids, and
        # the stream goes on to the cold state.
        source = stream_world.event_source()
        config = _config(tmp_path, compact_threshold=0.05)
        with StreamIngester(stream_world, stream=config) as ingester:
            _run_to_end(ingester, source, limit=600)
            ingester.compact(force=True)
            frozen = dict(ingester._medoid_by_global)
            if failing == "wal":
                append, calls = ingester.wal.append_many, []

                def append_many(records):
                    calls.append(records)
                    if len(calls) == 2:
                        raise OSError("disk full")
                    return append(records)

                monkeypatch.setattr(ingester.wal, "append_many", append_many)
            else:

                def cluster_community(community):
                    raise OSError("compaction failed")

                monkeypatch.setattr(
                    ingester, "_cluster_community", cluster_community
                )
            with pytest.raises(OSError):
                ingester.ingest(source.read(600, 150))
            assert ingester.n_events == (650 if failing == "wal" else 750)
            expected = associate_hashes(
                ingester.posts.phash[600:], frozen, theta=PipelineConfig().theta
            )
            assert (expected.cluster_ids >= 0).any()
            assert np.array_equal(
                ingester._columns["assoc_ids"][600:], expected.cluster_ids
            )
            assert np.array_equal(
                ingester._columns["assoc_dists"][600:], expected.distances
            )
            monkeypatch.undo()
            _run_to_end(ingester, source, limit=900)
            ingester.compact(force=True)
            result = ingester.result()
        assert state_equals(result, run_pipeline(PrefixWorld(stream_world, 900)))

    def test_stale_checkpoint_rejected_on_config_change(
        self, tmp_path, stream_world
    ):
        config = _config(tmp_path)
        with StreamIngester(stream_world, stream=config) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=100)
            ingester.compact(force=True)
        with pytest.raises(StaleCheckpointError):
            StreamIngester(
                stream_world,
                stream=config,
                config=PipelineConfig(theta=4),
            )
        # The failed constructor must not leak its lock.
        with StreamIngester(stream_world, stream=config):
            pass

    def test_previous_layout_checkpoint_rejected(
        self, tmp_path, stream_world, monkeypatch
    ):
        # Before the WAL became the post log, a checkpoint held every
        # applied post's columns beside the derived state, and no tie
        # bits, under the "stream-v5" fingerprint, and compaction
        # truncated the WAL behind it.  Such a file must fail the
        # fingerprint check before any of it is read as state.
        config = _config(tmp_path)
        with StreamIngester(stream_world, stream=config) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=100)
            ingester.compact(force=True)
            fingerprint = ingester._fingerprint()
            posts = ingester.posts
        path = tmp_path / "stream.ckpt"
        payload = load_checkpoint(path, fingerprint=fingerprint)
        del payload["assoc_tied"], payload["n_events"]
        payload["posts"] = posts.to_columns()
        assert fingerprint.startswith("stream-v6|")
        save_checkpoint(
            path, payload, fingerprint="stream-v5|" + fingerprint[len("stream-v6|"):]
        )

        def misread(self, payload, posts):
            raise AssertionError("a previous-layout checkpoint was read")

        monkeypatch.setattr(StreamIngester, "_restore", misread)
        with pytest.raises(StaleCheckpointError, match="stream-v5"):
            StreamIngester(stream_world, stream=config)

    def test_checkpoint_graph_is_cold_radius_graph(self, tmp_path, stream_world):
        # The checkpoint keeps, per community, the graph the compaction
        # grew; it must be the cold radius graph over the clustered
        # unique hashes, row for row, for the next compaction to grow.
        config = _config(tmp_path, compact_threshold=0.2)
        eps = PipelineConfig().clustering_eps
        with StreamIngester(stream_world, stream=config) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=400)
            ingester.compact(force=True)
            assert ingester.report.compactions >= 2
            fingerprint = ingester._fingerprint()
        payload = load_checkpoint(tmp_path / "stream.ckpt", fingerprint=fingerprint)
        assert sorted(payload["graphs"]) == sorted(payload["clusterings"])
        for community, graph in payload["graphs"].items():
            cold = radius_neighbors(
                payload["clusterings"][community].unique_hashes, eps
            )
            assert len(graph) == len(cold), community
            for row, expected in zip(graph, cold):
                assert np.array_equal(row, expected), community

    def test_pre_columnar_wal_record_fails_loudly(self, tmp_path, stream_world):
        # Before post tables, a WAL record pickled a list of Post rows.
        # Replaying one must name the old format, not fail partway with
        # a TypeError, and must leave the log as it was.
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append({"posts": list(stream_world.posts[:5])})
        segments = {path: path.read_bytes() for path in tmp_path.glob("wal-*.seg")}
        with pytest.raises(WALError, match="pre-columnar"):
            StreamIngester(stream_world, stream=_config(tmp_path))
        assert {path: path.read_bytes() for path in segments} == segments
        assert not (tmp_path / ".lock").exists()

    def test_lock_excludes_second_ingester(self, tmp_path, stream_world):
        with StreamIngester(
            stream_world, stream=_config(tmp_path)
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=50)
            with pytest.raises(CheckpointLockError):
                StreamIngester(stream_world, stream=_config(tmp_path))

    def test_second_ingester_lock_error_names_wal_dir(
        self, tmp_path, stream_world
    ):
        config = _config(tmp_path)
        with StreamIngester(stream_world, stream=config):
            with pytest.raises(CheckpointLockError) as excinfo:
                StreamIngester(stream_world, stream=_config(tmp_path))
        message = str(excinfo.value)
        assert f"directory {config.wal_dir} is locked" in message
        assert "--checkpoint-dir" not in message


class TestPostLog:
    """The WAL is the post log: each post is written once, and only there."""

    def test_checkpoint_holds_no_posts_and_wal_each_post_once(
        self, tmp_path, stream_world
    ):
        source = stream_world.event_source()
        config = _config(tmp_path, compact_threshold=0.2)
        checkpoint = tmp_path / "stream.ckpt"
        # (checkpoint bytes, WAL bytes) after every compaction.
        sizes = []
        with StreamIngester(stream_world, stream=config) as ingester:
            while ingester.n_events < source.n_events:
                compactions = ingester.report.compactions
                ingester.ingest(source.read(ingester.n_events, 50))
                if ingester.report.compactions > compactions:
                    sizes.append(
                        (checkpoint.stat().st_size, ingester.wal.total_bytes)
                    )
            posts = ingester.posts
            fingerprint = ingester._fingerprint()
        assert len(sizes) >= 5
        # A checkpoint grows with the derived state only: by far less
        # than the posts logged since the one before it.
        for (ckpt_a, wal_a), (ckpt_b, wal_b) in zip(sizes, sizes[1:]):
            assert ckpt_b - ckpt_a < (wal_b - wal_a) / 2
        assert sizes[-1][0] - sizes[0][0] < (sizes[-1][1] - sizes[0][1]) / 4
        payload = load_checkpoint(checkpoint, fingerprint=fingerprint)
        assert not {"posts", *posts.to_columns()} & set(payload)
        # The WAL's records are the applied posts, in order, each once.
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            logged = [record["posts"] for _, record in wal.replay()]
        for name, column in posts.to_columns().items():
            replayed = np.concatenate([columns[name] for columns in logged])
            assert np.array_equal(replayed, column), name
        wal_bytes = b"".join(
            path.read_bytes() for path in sorted(tmp_path.glob("wal-*.seg"))
        )
        checkpoint_bytes = checkpoint.read_bytes()
        for columns in logged:
            phash = columns["phash"].tobytes()
            assert wal_bytes.count(phash) == 1
            assert phash not in checkpoint_bytes


class TestColumnBuffers:
    def test_appends_reallocate_logarithmically(self, tmp_path, stream_world):
        batches = 40
        config = _config(tmp_path, batch_size=25, compact_threshold=100.0)
        with StreamIngester(stream_world, stream=config) as ingester:
            _run_to_end(
                ingester, stream_world.event_source(), chunk=25, limit=25 * batches
            )
            assert ingester.report.batches == batches
            assert ingester._columns.reallocations <= math.ceil(math.log2(batches)) + 1
            ingester.compact(force=True)
            result = ingester.result()
        assert state_equals(
            result, run_pipeline(PrefixWorld(stream_world, 25 * batches))
        )


class TestBackpressure:
    def test_shedding_bounds_buffer_and_cursor_recovers(
        self, tmp_path, stream_world, batch_result
    ):
        config = _config(
            tmp_path, max_buffer=20, batch_size=20, compact_threshold=0.05
        )
        with StreamIngester(stream_world, stream=config) as ingester:
            source = stream_world.event_source()
            shed = 0
            while ingester.n_events < source.n_events:
                # Oversubmit on purpose: 80 events into a 20-slot buffer.
                events = source.read(ingester.n_events, 80)
                outcome = ingester.ingest(events)
                shed += outcome["shed"]
            assert shed > 0
            assert ingester.report.events_shed == shed
            assert ingester.buffer.peak_depth <= 20
            ingester.compact(force=True)
            result = ingester.result()
        # Shed events were re-read from the cursor: nothing was lost.
        assert state_equals(result, batch_result)


class TestFaultSites:
    def test_raise_fault_fires_and_cursor_recovers(
        self, tmp_path, stream_world
    ):
        faults = FaultInjector([Fault("stream:ingest", TransientError)])
        config = _config(tmp_path, compact_threshold=100.0)
        with StreamIngester(
            stream_world, stream=config, faults=faults
        ) as ingester:
            source = stream_world.event_source()
            with pytest.raises(TransientError):
                ingester.ingest(source.read(0, 120))
            assert ingester.n_events == 0
            assert len(ingester.buffer) == 0  # no stranded events
            _run_to_end(ingester, source, limit=200)
            ingester.compact(force=True)
            result = ingester.result()
        assert "stream:ingest" in faults.fired_sites()
        assert state_equals(result, run_pipeline(PrefixWorld(stream_world, 200)))

    def test_hang_fault_delays_but_preserves_state(
        self, tmp_path, stream_world
    ):
        faults = FaultInjector(
            [Fault("stream:compact", action="hang", delay_s=0.01)]
        )
        with StreamIngester(
            stream_world, stream=_config(tmp_path), faults=faults
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=100)
            ingester.compact(force=True)
            result = ingester.result()
        assert "stream:compact" in faults.fired_sites()
        assert state_equals(result, run_pipeline(PrefixWorld(stream_world, 100)))

    def test_kill_fault_counts_down_to_final_firing(self):
        injector = FaultInjector(
            [Fault("stream:ingest", action="kill", times=3)]
        )
        assert injector.stream_directive("stream:ingest") is None
        assert injector.stream_directive("stream:ingest") is None
        directive = injector.stream_directive("stream:ingest")
        assert directive is not None and directive.action == "kill"
        assert injector.stream_directive("stream:ingest") is None  # disarmed

    def test_unknown_stream_site_rejected(self):
        injector = FaultInjector([])
        with pytest.raises(ValueError, match="unknown stream chaos site"):
            injector.stream_directive("stream:nope")

    def test_stream_sites_registry(self):
        assert STREAM_SITES == (
            "stream:ingest", "stream:wal", "stream:compact"
        )


class TestEnvValidation:
    """The stream is configured by StreamConfig alone (no env vars)."""

    def test_stream_config_validation(self, tmp_path):
        for bad in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="compact_threshold"):
                StreamConfig(wal_dir=tmp_path, compact_threshold=bad)
        with pytest.raises(ValueError, match="max_buffer"):
            StreamConfig(wal_dir=tmp_path, max_buffer=0)
        with pytest.raises(ValueError, match="shed_watermark"):
            StreamConfig(wal_dir=tmp_path, max_buffer=4, shed_watermark=5)
        with pytest.raises(ValueError, match="batch_size"):
            StreamConfig(wal_dir=tmp_path, batch_size=0)


class TestStreamReport:
    def test_counters_consistent(self, tmp_path, stream_world):
        with StreamIngester(
            stream_world, stream=_config(tmp_path)
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=250)
            report = ingester.report
            assert report.events_ingested == 250
            assert report.batches == report.wal_records
            assert report.wal_bytes > 0
            assert report.wal_segments >= 1

    def test_summary_one_liner(self, tmp_path, stream_world):
        with StreamIngester(
            stream_world, stream=_config(tmp_path)
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=100)
            summary = ingester.report.summary()
        assert "\n" not in summary
        for token in ("ingested=100", "wal[", "compactions=", "drift="):
            assert token in summary
