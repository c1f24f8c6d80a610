"""Tests for checkpoints and the checkpoint lock."""

import os
import numpy as np
import pytest

from repro.utils.io import (
    CheckpointError,
    CheckpointLock,
    CheckpointLockError,
    StaleCheckpointError,
    load_checkpoint,
    save_checkpoint,
)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "stage.ckpt"
        payload = {"labels": np.arange(5), "name": "cluster"}
        save_checkpoint(path, payload, fingerprint="run-1|cluster")
        loaded = load_checkpoint(path, fingerprint="run-1|cluster")
        assert loaded["name"] == "cluster"
        np.testing.assert_array_equal(loaded["labels"], np.arange(5))

    def test_fingerprint_optional_on_load(self, tmp_path):
        path = tmp_path / "stage.ckpt"
        save_checkpoint(path, [1, 2, 3], fingerprint="fp")
        assert load_checkpoint(path) == [1, 2, 3]

    def test_stale_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "stage.ckpt"
        save_checkpoint(path, "payload", fingerprint="seed=1")
        with pytest.raises(StaleCheckpointError):
            load_checkpoint(path, fingerprint="seed=2")

    def test_flipped_byte_detected(self, tmp_path):
        path = tmp_path / "stage.ckpt"
        save_checkpoint(path, list(range(100)), fingerprint="fp")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, fingerprint="fp")

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "stage.ckpt"
        save_checkpoint(path, list(range(100)), fingerprint="fp")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint"
        path.write_bytes(b"x" * 100)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "stage.ckpt"
        save_checkpoint(path, "payload", fingerprint="fp")
        assert [p.name for p in tmp_path.iterdir()] == ["stage.ckpt"]

    def test_overwrite_replaces_previous(self, tmp_path):
        path = tmp_path / "stage.ckpt"
        save_checkpoint(path, "old", fingerprint="fp")
        save_checkpoint(path, "new", fingerprint="fp")
        assert load_checkpoint(path, fingerprint="fp") == "new"

    def test_failed_write_cleans_temp_and_keeps_previous(
        self, tmp_path, monkeypatch
    ):
        import repro.utils.io as io_mod

        path = tmp_path / "stage.ckpt"
        save_checkpoint(path, "old", fingerprint="fp")

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(io_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_checkpoint(path, "new", fingerprint="fp")
        monkeypatch.undo()
        # No temp residue, and the previous entry is still readable.
        assert [p.name for p in tmp_path.iterdir()] == ["stage.ckpt"]
        assert load_checkpoint(path, fingerprint="fp") == "old"

    def test_interleaved_writers_never_share_a_temp_file(
        self, tmp_path, monkeypatch
    ):
        """Two unsynchronised writers of one cache entry must not trample
        each other's in-progress temp file; the loser of the final rename
        race still renames a complete blob."""
        import repro.utils.io as io_mod

        path = tmp_path / "entry.ckpt"
        real_replace = io_mod.os.replace
        seen_temps = []

        def second_writer_races_in(src, dst):
            seen_temps.append(src)
            if len(seen_temps) == 1:
                # While writer A sits between write and rename, writer B
                # runs start-to-finish against the same destination.
                save_checkpoint(path, "B", fingerprint="fp")
            return real_replace(src, dst)

        monkeypatch.setattr(io_mod.os, "replace", second_writer_races_in)
        save_checkpoint(path, "A", fingerprint="fp")
        assert len(set(seen_temps)) == len(seen_temps) == 2
        # Last rename wins; either way the entry is complete and valid.
        assert load_checkpoint(path, fingerprint="fp") == "A"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.ckpt"]


class TestCheckpointLock:
    def test_acquire_writes_pid_and_release_removes(self, tmp_path):
        import os

        lock = CheckpointLock(tmp_path)
        lock.acquire()
        assert (tmp_path / ".lock").read_text() == str(os.getpid())
        lock.release()
        assert not (tmp_path / ".lock").exists()

    def test_second_acquire_fails_fast_with_clear_error(self, tmp_path):
        import os

        with CheckpointLock(tmp_path):
            second = CheckpointLock(tmp_path)
            with pytest.raises(CheckpointLockError) as excinfo:
                second.acquire()
            message = str(excinfo.value)
            assert str(tmp_path) in message
            assert f"pid {os.getpid()}" in message
            # Names the directory, not a CLI flag: the lock's owner
            # (the stream ingester's WAL) has its own option.
            assert "--checkpoint-dir" not in message

    def test_stale_dead_pid_lock_is_broken(self, tmp_path):
        # A lock held by a PID that no longer exists is stale and must
        # be re-acquirable without operator intervention.
        lockfile = tmp_path / ".lock"
        lockfile.write_text("999999999")  # beyond pid_max: never alive
        lock = CheckpointLock(tmp_path)
        lock.acquire()
        assert lockfile.read_text() == str(os.getpid())
        lock.release()

    def test_stale_old_mtime_lock_is_broken(self, tmp_path):
        import os
        import time

        lockfile = tmp_path / ".lock"
        lockfile.write_text(str(os.getpid()))  # alive PID, but ancient lock
        old = time.time() - 7200.0
        os.utime(lockfile, (old, old))
        lock = CheckpointLock(tmp_path, stale_after_s=3600.0)
        lock.acquire()
        assert lockfile.read_text() == str(os.getpid())
        lock.release()

    def test_live_lock_with_garbage_pid_not_broken_early(self, tmp_path):
        # Unreadable PID + fresh mtime: assume live, fail fast.
        (tmp_path / ".lock").write_text("not-a-pid")
        with pytest.raises(CheckpointLockError):
            CheckpointLock(tmp_path).acquire()

    def test_context_manager_releases_on_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with CheckpointLock(tmp_path):
                raise RuntimeError("boom")
        assert not (tmp_path / ".lock").exists()

    def test_release_is_idempotent(self, tmp_path):
        lock = CheckpointLock(tmp_path).acquire()
        lock.release()
        lock.release()  # second release: no-op, no error

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointLock(tmp_path, stale_after_s=0)
