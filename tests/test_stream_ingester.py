"""Streaming ingestion: the streamed-equals-batch acceptance invariant.

The pinned contract: at every compaction point — and after any single
crash/recovery — the ingester's state is bit-identical to a cold batch
:func:`repro.core.run_pipeline` over the same event prefix.  Plus the
supporting machinery: backpressure shedding with cursor re-read,
fault-site plumbing, env-var validation, lock exclusion, and the
:class:`StreamReport` observability surface.
"""

import os

import numpy as np
import pytest

from repro.communities import SyntheticWorld, WorldConfig
from repro.core import run_pipeline
from repro.core.config import PipelineConfig
from repro.core.faults import STREAM_SITES, Fault, FaultInjector
from repro.stream import (
    ENV_COMPACT_THRESHOLD,
    ENV_GROUP_COMMIT,
    ENV_WAL_DIR,
    EventSource,
    PrefixWorld,
    StreamConfig,
    StreamIngester,
    state_equals,
    stream_config_from_env,
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
        assert first == list(stream_world.posts[:10])
        assert source.read(source.n_events, 10) == []

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
        # Before neighbourhoods were stored as pair arrays, a checkpoint
        # held each community's rows as one flat array plus row lengths,
        # under the "stream-v2" fingerprint.  Such a file must fail the
        # fingerprint check before any of it is read as state.
        config = _config(tmp_path)
        with StreamIngester(stream_world, stream=config) as ingester:
            _run_to_end(ingester, stream_world.event_source(), limit=100)
            ingester.compact(force=True)
            fingerprint = ingester._fingerprint()
        path = tmp_path / "stream.ckpt"
        payload = load_checkpoint(path, fingerprint=fingerprint)
        for state in payload["neighbor_state"].values():
            n = state["hashes"].size
            order = np.argsort(state["row"], kind="stable")
            state["flat"] = state.pop("col")[order]
            state["lengths"] = np.bincount(state.pop("row"), minlength=n)
        assert fingerprint.startswith("stream-v3|")
        save_checkpoint(
            path, payload, fingerprint="stream-v2|" + fingerprint[len("stream-v3|"):]
        )

        def misread(self, payload):
            raise AssertionError("a previous-layout checkpoint was read")

        monkeypatch.setattr(StreamIngester, "_restore", misread)
        with pytest.raises(StaleCheckpointError, match="stream-v2"):
            StreamIngester(stream_world, stream=config)

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
    def test_valid_env_resolves(self, tmp_path):
        env = {
            ENV_WAL_DIR: str(tmp_path),
            ENV_COMPACT_THRESHOLD: "0.25",
        }
        resolved = stream_config_from_env(env)
        assert resolved == {
            "wal_dir": str(tmp_path),
            "compact_threshold": 0.25,
        }

    def test_unset_env_resolves_nothing(self):
        assert stream_config_from_env({}) == {}

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_empty_wal_dir_warns_naming_value(self, raw):
        with pytest.warns(RuntimeWarning, match="REPRO_WAL_DIR"):
            resolved = stream_config_from_env({ENV_WAL_DIR: raw})
        assert resolved == {}

    def test_file_wal_dir_warns(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        with pytest.warns(RuntimeWarning, match="not a directory"):
            resolved = stream_config_from_env({ENV_WAL_DIR: str(target)})
        assert resolved == {}

    @pytest.mark.parametrize("raw", ["banana", "0", "-1", "nan", "inf"])
    def test_malformed_threshold_warns_naming_value(self, raw):
        with pytest.warns(RuntimeWarning, match=raw):
            resolved = stream_config_from_env({ENV_COMPACT_THRESHOLD: raw})
        assert resolved == {}

    @pytest.mark.parametrize(
        "raw, expected",
        [("1", True), ("true", True), ("YES", True), ("0", False), ("off", False)],
    )
    def test_group_commit_env_resolves(self, raw, expected):
        resolved = stream_config_from_env({ENV_GROUP_COMMIT: raw})
        assert resolved == {"group_commit": expected}

    def test_malformed_group_commit_warns_naming_value(self):
        with pytest.warns(RuntimeWarning, match="maybe"):
            resolved = stream_config_from_env({ENV_GROUP_COMMIT: "maybe"})
        assert resolved == {}

    def test_stream_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="compact_threshold"):
            StreamConfig(wal_dir=tmp_path, compact_threshold=0)
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

    def test_hawkes_refit_runs_at_compaction(self, tmp_path, stream_world):
        with StreamIngester(
            stream_world,
            stream=_config(tmp_path, hawkes_min_events=2),
        ) as ingester:
            _run_to_end(ingester, stream_world.event_source())
            ingester.compact(force=True)
            assert ingester.report.hawkes_refits >= 1
            assert ingester.hawkes_model is not None
