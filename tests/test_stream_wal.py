"""Segmented write-ahead log: framing, rotation, torn-tail recovery.

The contract under test: every record that :meth:`WriteAheadLog.append`
returned from is durable and replays bit-identically; a crash mid-append
leaves a *torn tail* that reopening truncates silently (the record was
never acknowledged); damage anywhere else — mid-file, or in a non-final
segment — is real corruption and raises :class:`WALCorruptError`.

Group commit extends the torn-tail family: :meth:`WriteAheadLog.append_many`
fsyncs once per group, so a crash after frame *k* of an *n*-frame group
leaves intact-but-uncommitted frames that recovery must drop **as a
unit** — a partially-applied batch would break bit-identity with the
cold batch run.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.stream import WALCorruptError, WALError, WriteAheadLog
from repro.stream.wal import _frame


def _records(n, start=0):
    return [{"posts": [f"event-{i}-{j}" for j in range(3)]} for i in range(start, start + n)]


def _fill(wal, records):
    return [wal.append(record) for record in records]


def _segment_paths(directory):
    return sorted(directory.glob("wal-*.seg"))


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        records = _records(5)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            seqs = _fill(wal, records)
            assert seqs == [0, 1, 2, 3, 4]
            replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == seqs
        assert [record for _, record in replayed] == records

    def test_replay_after_seq_skips_prefix(self, tmp_path):
        records = _records(6)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, records)
            replayed = list(wal.replay(after_seq=3))
        assert [seq for seq, _ in replayed] == [4, 5]
        assert [record for _, record in replayed] == records[4:]

    def test_reopen_continues_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(3))
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.next_seq == 3
            assert wal.torn_truncated == 0
            _fill(wal, _records(2, start=3))
            replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == [0, 1, 2, 3, 4]

    def test_empty_directory(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.next_seq == 0
            assert list(wal.replay()) == []
            assert wal.n_segments == 0

    def test_fsync_append_durable(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=True) as wal:
            wal.append({"posts": ["durable"]})
        with WriteAheadLog(tmp_path) as wal:
            assert [record for _, record in wal.replay()] == [
                {"posts": ["durable"]}
            ]


class TestRotation:
    def test_rotates_past_segment_max(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=256, fsync=False) as wal:
            _fill(wal, _records(8))
            assert wal.n_segments > 1
            replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == list(range(8))

    def test_reopen_appends_to_last_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=1 << 20, fsync=False) as wal:
            _fill(wal, _records(2))
        with WriteAheadLog(tmp_path, segment_max_bytes=1 << 20, fsync=False) as wal:
            _fill(wal, _records(1, start=2))
            assert wal.n_segments == 1

    def test_replay_after_seq_spans_segments(self, tmp_path):
        records = _records(10)
        with WriteAheadLog(tmp_path, segment_max_bytes=256, fsync=False) as wal:
            _fill(wal, records)
            assert wal.n_segments > 2
            replayed = list(wal.replay(after_seq=4))
        assert [record for _, record in replayed] == records[5:]


class TestTornTail:
    """Every flavour of crash-mid-append the reopen must absorb."""

    def _tail(self, tmp_path):
        return _segment_paths(tmp_path)[-1]

    def test_torn_mid_payload_truncated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(3))
            good_end = self._tail(tmp_path).stat().st_size
            wal.append({"posts": ["doomed"]})
        path = self._tail(tmp_path)
        os.truncate(path, good_end + 20)  # cut inside the last frame
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_truncated == 1
            assert wal.next_seq == 3
            assert [seq for seq, _ in wal.replay()] == [0, 1, 2]
        assert path.stat().st_size == good_end

    def test_partial_header_tail_truncated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(2))
        path = self._tail(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"RWL2\x00\x01")  # 6 bytes: not even a header
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_truncated == 1
            assert [seq for seq, _ in wal.replay()] == [0, 1]

    def test_zero_length_final_record(self, tmp_path):
        # The crash hit before a single byte of the new frame landed:
        # the file ends exactly at the last good record — a clean tail,
        # not a torn one.
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(2))
            good_end = self._tail(tmp_path).stat().st_size
        os.truncate(self._tail(tmp_path), good_end)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_truncated == 0
            assert wal.next_seq == 2

    def test_empty_final_segment_file(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(2))
        # A rotation crash can leave a fresh zero-byte segment behind.
        next_index = len(_segment_paths(tmp_path))
        (tmp_path / f"wal-{next_index:08d}.seg").touch()
        with WriteAheadLog(tmp_path) as wal:
            assert wal.next_seq == 2
            assert [seq for seq, _ in wal.replay()] == [0, 1]

    def test_checksum_corrupt_final_record_truncated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(3))
            good_end_before_last = None
        path = self._tail(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip the final payload byte: digest breaks
        path.write_bytes(bytes(blob))
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_truncated == 1
            assert wal.next_seq == 2
            assert [seq for seq, _ in wal.replay()] == [0, 1]

    def test_checksum_corrupt_mid_file_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(1))
            first_end = self._tail(tmp_path).stat().st_size
            _fill(wal, _records(2, start=1))
        path = self._tail(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[first_end - 1] ^= 0xFF  # damage record 0, records 1-2 follow
        path.write_bytes(bytes(blob))
        with pytest.raises(WALCorruptError):
            WriteAheadLog(tmp_path)

    def test_corrupt_non_final_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=256, fsync=False) as wal:
            _fill(wal, _records(8))
            assert wal.n_segments > 1
        first = _segment_paths(tmp_path)[0]
        blob = bytearray(first.read_bytes())
        blob[-1] ^= 0xFF  # even a *tail* tear is fatal off the last segment
        first.write_bytes(bytes(blob))
        with pytest.raises(WALCorruptError):
            WriteAheadLog(tmp_path)

    def test_bad_magic_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(1))
            _fill(wal, _records(1, start=1))
        path = self._tail(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF  # first record's magic: structural corruption
        path.write_bytes(bytes(blob))
        with pytest.raises(WALCorruptError):
            WriteAheadLog(tmp_path)

    def test_sequence_gap_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=256, fsync=False) as wal:
            _fill(wal, _records(10))
            assert wal.n_segments > 2
        middle = _segment_paths(tmp_path)[1]
        middle.unlink()
        with pytest.raises(WALError):
            WriteAheadLog(tmp_path)

    def test_torn_then_append_continues_cleanly(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(2))
            good_end = self._tail(tmp_path).stat().st_size
            wal.append({"posts": ["doomed"]})
        os.truncate(self._tail(tmp_path), good_end + 10)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.next_seq == 2
            wal.append({"posts": ["replacement"]})
            replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == [0, 1, 2]
        assert replayed[-1][1] == {"posts": ["replacement"]}


def _uncommitted_frames(records, start_seq):
    """Frame ``records`` as an unterminated group (no commit frame)."""
    return b"".join(
        _frame(
            start_seq + i,
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL),
            commit=False,
        )
        for i, record in enumerate(records)
    )


class TestGroupCommit:
    """append_many: one fsync per group, all-or-nothing recovery."""

    def test_append_many_round_trip(self, tmp_path):
        records = _records(6)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            seqs = wal.append_many(records)
            assert seqs == [0, 1, 2, 3, 4, 5]
            replayed = list(wal.replay())
        assert [record for _, record in replayed] == records

    def test_append_many_empty_batch(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.append_many([]) == []
            assert wal.next_seq == 0

    def test_groups_and_singles_interleave(self, tmp_path):
        records = _records(7)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append(records[0])
            wal.append_many(records[1:4])
            wal.append(records[4])
            wal.append_many(records[5:])
            replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == list(range(7))
        assert [record for _, record in replayed] == records

    def test_group_replays_identically_to_singles(self, tmp_path):
        records = _records(5)
        grouped = tmp_path / "grouped"
        single = tmp_path / "single"
        with WriteAheadLog(grouped, fsync=False) as wal:
            wal.append_many(records)
        with WriteAheadLog(single, fsync=False) as wal:
            _fill(wal, records)
        with WriteAheadLog(grouped) as a, WriteAheadLog(single) as b:
            assert list(a.replay()) == list(b.replay())

    def test_reopen_after_group_continues_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append_many(_records(4))
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.next_seq == 4
            assert wal.torn_truncated == 0

    def test_group_never_spans_segments(self, tmp_path):
        # A group larger than segment_max_bytes still lands whole in
        # the active segment; rotation happens after the group.
        with WriteAheadLog(tmp_path, segment_max_bytes=256, fsync=False) as wal:
            wal.append_many(_records(6))
            assert wal.n_segments == 1
            wal.append({"posts": ["next"]})
            assert wal.n_segments == 2
            replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == list(range(7))

    def test_uncommitted_group_tail_truncated_whole(self, tmp_path):
        # Intact frames, but the commit frame never landed: recovery
        # must drop the *whole* group, not keep the intact prefix.
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(2))
        path = _segment_paths(tmp_path)[-1]
        good_end = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(_uncommitted_frames(_records(3, start=2), 2))
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_truncated == 1
            assert wal.next_seq == 2
            assert [seq for seq, _ in wal.replay()] == [0, 1]
        assert path.stat().st_size == good_end

    def test_uncommitted_frames_plus_partial_frame_truncated(self, tmp_path):
        # Crash half-way through frame k of a group: frames before k
        # are intact but uncommitted, frame k is partial.  One torn
        # event, everything after the last commit frame goes.
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, _records(2))
        path = _segment_paths(tmp_path)[-1]
        good_end = path.stat().st_size
        partial = _uncommitted_frames(_records(1, start=4), 4)
        with open(path, "ab") as handle:
            handle.write(_uncommitted_frames(_records(2, start=2), 2))
            handle.write(partial[: len(partial) // 2])
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_truncated == 1
            assert wal.next_seq == 2
            assert [seq for seq, _ in wal.replay()] == [0, 1]
        assert path.stat().st_size == good_end

    def test_uncommitted_tail_on_non_final_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=256, fsync=False) as wal:
            _fill(wal, _records(8))
            assert wal.n_segments > 1
        first = _segment_paths(tmp_path)[0]
        with open(first, "ab") as handle:
            handle.write(_uncommitted_frames(_records(1, start=99), 99))
        with pytest.raises(WALCorruptError):
            WriteAheadLog(tmp_path)

    @pytest.mark.parametrize("kill_frame", [0, 2, 3])
    def test_kill_after_frame_k_drops_whole_group(self, tmp_path, kill_frame):
        """A real SIGKILL-grade death (os._exit) after frame *k* of a
        4-frame group: recovery truncates the whole group and keeps the
        committed prefix."""
        script = (
            "import sys\n"
            "from types import SimpleNamespace\n"
            "from repro.stream.wal import WriteAheadLog\n"
            "kill_at = int(sys.argv[2])\n"
            "calls = {'n': 0}\n"
            "def chaos():\n"
            "    calls['n'] += 1\n"
            "    if calls['n'] == kill_at:\n"
            "        return SimpleNamespace(action='kill', delay_s=0.0)\n"
            "    return None\n"
            "wal = WriteAheadLog(sys.argv[1], chaos=chaos)\n"
            "wal.append({'posts': ['committed']})\n"
            "wal.append_many([{'posts': [f'doomed-{i}']} for i in range(4)])\n"
            "raise SystemExit('kill directive never fired')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        # Consult 1 is the single append; consults 2..5 are the group's
        # frames 0..3.
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), str(2 + kill_frame)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert run.returncode == 17, (run.stdout, run.stderr)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_truncated == 1
            assert wal.next_seq == 1
            replayed = list(wal.replay())
        assert [record for _, record in replayed] == [{"posts": ["committed"]}]
