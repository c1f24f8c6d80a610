"""Segmented write-ahead log with integrity-checked, fsynced records.

The streaming ingester (:mod:`repro.stream.ingester`) must survive a
SIGKILL at any instant and recover to a state bit-identical to a batch
run over the events it acknowledged.  The write-ahead log is the
durability half of that contract: every event batch is appended — and
fsynced — *before* it is applied to in-memory state, so the durable
prefix always leads the applied prefix.

Record framing follows the ``RPC1`` checkpoint container from
:mod:`repro.utils.io` (magic, digest, length-framed payload), with a
sequence number so replay can skip records already covered by a
checkpoint, and a flags byte carrying the group-commit bit::

    b"RWL2" | sha256(seq || flags || payload) (32B) | seq (8B BE)
            | flags (1B) | len (4B BE) | payload

Records live in numbered segment files (``wal-00000000.seg``, rotated
at ``segment_max_bytes``).  Nothing is ever dropped from the log: it is
the ingester's post log, each post written once, and recovery rebuilds
the applied posts from it (the ingester's checkpoint holds only derived
state).

Group commit: :meth:`WriteAheadLog.append_many` frames a whole batch of
records, writes them in one buffered write, and fsyncs **once** — the
fixed fsync cost is amortised over the group.  Only the last frame of a
group carries the COMMIT flag (bit 0); a single :meth:`append` is a
group of one, so its frame always commits.  A group is durable as a
unit: no caller is acknowledged until the commit frame's fsync returns.

Crash anatomy on open: a crash mid-append can only leave a *torn tail*
at the end of the **last** segment — a partial frame, or intact frames
of a group whose commit frame never landed.  The scan truncates back to
the end of the last *committed* frame (those events were never
acknowledged; the ingester re-reads them from its cursor) and keeps
going.  Any other framing or digest failure is *mid-file corruption* —
impossible from a crash, so it raises :class:`WALCorruptError` instead
of silently dropping acknowledged records.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Callable

__all__ = ["WALCorruptError", "WALError", "WriteAheadLog"]

_WAL_MAGIC = b"RWL2"
# magic + sha256 digest + 8-byte seq + 1-byte flags + 4-byte payload length
_HEADER_LEN = len(_WAL_MAGIC) + 32 + 8 + 1 + 4
# Flags bit 0: this frame commits its group (always set on single appends).
_FLAG_COMMIT = 0x01


class WALError(RuntimeError):
    """The write-ahead log is unusable (bad layout, broken sequence)."""


class WALCorruptError(WALError):
    """Mid-file corruption: a bad record *not* attributable to a crash."""


class _Segment:
    __slots__ = ("path", "index", "first_seq", "last_seq", "size")

    def __init__(self, path: Path, index: int) -> None:
        self.path = path
        self.index = index
        self.first_seq: int | None = None
        self.last_seq: int | None = None
        self.size = 0


def _digest(seq_bytes: bytes, flags: int, payload) -> bytes:
    check = hashlib.sha256(seq_bytes)
    check.update(bytes([flags]))
    check.update(payload)
    return check.digest()


def _frame(seq: int, payload: bytes, *, commit: bool) -> bytes:
    seq_bytes = seq.to_bytes(8, "big")
    flags = _FLAG_COMMIT if commit else 0
    return (
        _WAL_MAGIC
        + _digest(seq_bytes, flags, payload)
        + seq_bytes
        + bytes([flags])
        + len(payload).to_bytes(4, "big")
        + payload
    )


def _parse_segment(
    blob: bytes, path: Path, *, final: bool, verify: bool = True
) -> tuple[list[tuple[int, int, int]], int, int]:
    """Parse one segment's frames.

    Returns ``(records, good_end, torn)`` where ``records`` holds
    ``(seq, payload_start, payload_len)`` triples for *committed*
    frames, ``good_end`` is the offset past the last commit frame, and
    ``torn`` counts truncation events (0 or 1; only ever nonzero for
    the final segment).  A torn tail is a partial frame **or** intact
    frames of a group whose commit frame never landed — either way the
    whole uncommitted suffix is dropped as one event, because a group
    is durable only as a unit.  Raises :class:`WALCorruptError` for
    damage that cannot be a torn tail.  ``verify=False`` skips the
    digests, for frames a scan has verified already.
    """
    records: list[tuple[int, int, int]] = []
    # Frames of the group being accumulated; promoted to ``records``
    # only when a commit frame closes the group.
    pending: list[tuple[int, int, int]] = []
    good_end = 0
    offset = 0
    size = len(blob)
    while offset < size:
        remaining = size - offset
        if remaining < _HEADER_LEN:
            if final:
                return records, good_end, 1
            raise WALCorruptError(
                f"{path}: truncated record header mid-log at offset {offset}"
            )
        if blob[offset : offset + 4] != _WAL_MAGIC:
            raise WALCorruptError(
                f"{path}: bad record magic at offset {offset}"
            )
        digest = blob[offset + 4 : offset + 36]
        seq_bytes = blob[offset + 36 : offset + 44]
        flags = blob[offset + 44]
        payload_len = int.from_bytes(blob[offset + 45 : offset + 49], "big")
        end = offset + _HEADER_LEN + payload_len
        if end > size:
            if final:
                return records, good_end, 1
            raise WALCorruptError(
                f"{path}: truncated record payload mid-log at offset {offset}"
            )
        payload = memoryview(blob)[offset + _HEADER_LEN : end]
        if verify and _digest(seq_bytes, flags, payload) != digest:
            if final and end == size:
                # Digest failure on the very last record: a torn write
                # that happened to cover the full frame length.
                return records, good_end, 1
            raise WALCorruptError(
                f"{path}: record digest mismatch at offset {offset} "
                "(mid-file corruption)"
            )
        pending.append(
            (int.from_bytes(seq_bytes, "big"), offset + _HEADER_LEN, payload_len)
        )
        offset = end
        if flags & _FLAG_COMMIT:
            records.extend(pending)
            pending.clear()
            good_end = offset
    if pending:
        # Intact frames with no commit frame behind them: the crash hit
        # between a group's frames and its fsync.  None of them were
        # acknowledged, so the whole group is a torn tail.
        if final:
            return records, good_end, 1
        raise WALCorruptError(
            f"{path}: uncommitted group tail mid-log at offset {good_end}"
        )
    return records, offset, 0


class WriteAheadLog:
    """Append-only, crash-consistent record log over segment files.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.
    segment_max_bytes:
        Rotate to a fresh segment once the active one reaches this size
        (checked after each append, so records are never split).
    fsync:
        Fsync after every append (the durability contract; tests may
        turn it off for speed where durability is not under test).
    chaos:
        Optional zero-argument callable consulted before every append —
        the :meth:`repro.core.faults.FaultInjector.stream_directive`
        hook for the ``stream:wal`` site.  A ``kill`` directive writes
        half the frame, fsyncs, and ``os._exit(17)``s — manufacturing
        the exact torn tail a power cut would leave.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_max_bytes: int = 1 << 20,
        fsync: bool = True,
        chaos: Callable[[], object] | None = None,
    ) -> None:
        if segment_max_bytes < _HEADER_LEN:
            raise ValueError("segment_max_bytes too small for one record")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync = bool(fsync)
        self._chaos = chaos
        self._handle = None
        self._active: _Segment | None = None
        self.records_appended = 0
        self.torn_truncated = 0
        self._segments: list[_Segment] = []
        self.next_seq = 0
        self._scan()

    # ------------------------------------------------------------------
    # Open-time scan and recovery
    # ------------------------------------------------------------------

    def _scan(self) -> None:
        paths = sorted(self.directory.glob("wal-*.seg"))
        segments: list[_Segment] = []
        for path in paths:
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                raise WALError(f"{path}: not a WAL segment name")
            segments.append(_Segment(path, index))
        segments.sort(key=lambda segment: segment.index)
        expected_seq: int | None = None
        for position, segment in enumerate(segments):
            final = position == len(segments) - 1
            blob = segment.path.read_bytes()
            records, good_end, torn = _parse_segment(
                blob, segment.path, final=final
            )
            if torn:
                # Unacknowledged partial frame from a crash mid-append:
                # drop it so the segment ends on a record boundary.
                with open(segment.path, "r+b") as handle:
                    handle.truncate(good_end)
                    handle.flush()
                    os.fsync(handle.fileno())
                self.torn_truncated += torn
            for seq, _, _ in records:
                if expected_seq is not None and seq != expected_seq:
                    raise WALError(
                        f"{segment.path}: sequence break (record {seq}, "
                        f"expected {expected_seq})"
                    )
                expected_seq = seq + 1
            if records:
                segment.first_seq = records[0][0]
                segment.last_seq = records[-1][0]
            segment.size = good_end
        # Keep every segment file we saw (an all-torn final segment
        # stays as an empty file and is simply appended to).
        self._segments = segments
        self.next_seq = expected_seq if expected_seq is not None else 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _open_segment(self) -> None:
        index = self._segments[-1].index + 1 if self._segments else 0
        path = self.directory / f"wal-{index:08d}.seg"
        segment = _Segment(path, index)
        self._segments.append(segment)
        self._handle = open(path, "ab")
        self._active = segment

    def _active_handle(self):
        if self._handle is None:
            if (
                self._segments
                and self._segments[-1].size < self.segment_max_bytes
            ):
                self._active = self._segments[-1]
                self._handle = open(self._active.path, "ab")
            else:
                self._open_segment()
        return self._handle

    def append(self, record: object) -> int:
        """Durably append one record; returns its sequence number.

        A group of one: the frame carries the COMMIT flag and is fully
        written and (by default) fsynced before the sequence number is
        returned — a record whose append returned is guaranteed to
        survive a crash and be replayed.
        """
        return self.append_many([record])[0]

    def append_many(self, records: list[object]) -> list[int]:
        """Durably append a batch as one commit group; returns its seqs.

        All frames are written in a single buffered write followed by a
        single fsync — the group-commit fast path.  Only the last frame
        carries the COMMIT flag, so a crash anywhere before the fsync
        returns leaves an uncommitted tail that recovery truncates as a
        unit: either the whole group is durable or none of it is.

        The chaos hook is consulted once per frame (matching the
        one-consult-per-record cadence of single appends), so a ``kill``
        directive armed at frame *k* writes frames ``0..k-1`` intact
        plus half of frame *k* — the exact torn-mid-group tail a power
        cut during the group write would leave.
        """
        if not records:
            return []
        base = self.next_seq
        frames = []
        for position, record in enumerate(records):
            payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            frames.append(
                _frame(
                    base + position,
                    payload,
                    commit=position == len(records) - 1,
                )
            )
        handle = self._active_handle()
        for position, frame in enumerate(frames):
            directive = self._chaos() if self._chaos is not None else None
            if directive is None:
                continue
            if getattr(directive, "action", None) == "hang":
                time.sleep(getattr(directive, "delay_s", 0.0))
                continue
            if getattr(directive, "action", None) == "kill":
                # Simulate a power cut mid-group: every frame before
                # this one plus half of this frame reach the disk, then
                # the process dies.  No commit frame landed, so recovery
                # must truncate the whole group and re-read the batch
                # from the source.
                handle.write(b"".join(frames[:position]))
                handle.write(frame[: max(1, len(frame) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
                os._exit(17)
        group = b"".join(frames)
        handle.write(group)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        active = self._active
        if active.first_seq is None:
            active.first_seq = base
        active.last_seq = base + len(frames) - 1
        active.size += len(group)
        self.next_seq = base + len(frames)
        self.records_appended += len(frames)
        # Rotation is checked after the group: a group never spans
        # segments, so parsing one segment sees whole groups only.
        if active.size >= self.segment_max_bytes:
            self._close_handle()
        return list(range(base, base + len(frames)))

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._active = None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self, after_seq: int = -1) -> Iterator[tuple[int, object]]:
        """Yield ``(seq, record)`` for every record with ``seq > after_seq``.

        Digests are not checked again: the open-time scan verified every
        frame on disk, and this log appended every frame since.
        """
        for position, segment in enumerate(self._segments):
            if segment.last_seq is None or segment.last_seq <= after_seq:
                continue
            blob = memoryview(segment.path.read_bytes())
            records, _, torn = _parse_segment(
                blob,
                segment.path,
                final=position == len(self._segments) - 1,
                verify=False,
            )
            if torn:  # pragma: no cover - scan already truncated tails
                raise WALError(f"{segment.path}: torn record during replay")
            for seq, start, length in records:
                if seq <= after_seq:
                    continue
                yield seq, pickle.loads(blob[start : start + length])

    def close(self) -> None:
        self._close_handle()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
