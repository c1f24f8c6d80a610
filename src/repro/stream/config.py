"""Streaming ingestion configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

__all__ = ["DEFAULT_COMPACT_THRESHOLD", "StreamConfig"]

DEFAULT_COMPACT_THRESHOLD = 0.1


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the durable streaming ingester.

    Attributes
    ----------
    wal_dir:
        Directory holding the write-ahead log segments, the
        ``stream.ckpt`` checkpoint, and the ingester's
        :class:`repro.utils.io.CheckpointLock`.
    compact_threshold:
        Medoid-drift bound that triggers compaction: the fraction of
        unique hashes added since the last compaction relative to the
        corpus size back then.  New unique hashes are the only thing
        that can move a cluster medoid or create a cluster, so this
        ratio bounds how stale the frozen medoid set can get before a
        full re-cluster promotes fresh ones.
    max_buffer:
        Hard bound of the ingest admission buffer (events).
    shed_watermark:
        Buffer depth at which arrivals are shed (default: the bound).
    batch_size:
        Events per WAL record — the append/fsync granularity.
    segment_max_bytes:
        WAL segment rotation size.
    fsync:
        Fsync every WAL append (durability; tests may disable).
    group_commit:
        Drain the whole admission buffer as one WAL commit group —
        every ``batch_size`` chunk becomes a frame, the group is one
        buffered write plus one fsync, and no batch is applied until
        the group's fsync returns.  The durability contract is
        unchanged (a crash mid-group truncates the whole group on
        recovery); only the fixed fsync cost is amortised.
    """

    wal_dir: str | Path
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD
    max_buffer: int = 4096
    shed_watermark: int | None = None
    batch_size: int = 256
    segment_max_bytes: int = 1 << 20
    fsync: bool = True
    group_commit: bool = False

    def __post_init__(self) -> None:
        if not (self.compact_threshold > 0 and math.isfinite(self.compact_threshold)):
            raise ValueError("compact_threshold must be a positive number")
        if self.max_buffer < 1:
            raise ValueError("max_buffer must be >= 1")
        if self.shed_watermark is not None and not (
            1 <= self.shed_watermark <= self.max_buffer
        ):
            raise ValueError("shed_watermark must be in [1, max_buffer]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
