"""Streaming ingestion configuration and environment resolution.

Follows the repo's env-var conventions (``REPRO_WORKERS``,
``REPRO_PARALLEL_BACKEND``): a malformed value is
*never* fatal — it emits a :class:`RuntimeWarning` naming the bad value
and falls back to the default, so a typo in a deployment manifest
degrades loudly instead of crashing the ingester at boot.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_COMPACT_THRESHOLD",
    "ENV_COMPACT_THRESHOLD",
    "ENV_GROUP_COMMIT",
    "ENV_WAL_DIR",
    "StreamConfig",
    "stream_config_from_env",
]

ENV_WAL_DIR = "REPRO_WAL_DIR"
ENV_COMPACT_THRESHOLD = "REPRO_COMPACT_THRESHOLD"
ENV_GROUP_COMMIT = "REPRO_GROUP_COMMIT"

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
    min_compact_events:
        Events that must accumulate past the last compaction before the
        drift trigger is even consulted.
    hawkes_window_days:
        Sliding window for the compaction-time Hawkes refit; ``None``
        fits over the full retained history.
    hawkes_min_events:
        Minimum matched events a cluster needs to contribute a sequence
        to the refit.
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
    min_compact_events: int = 1
    hawkes_window_days: float | None = None
    hawkes_min_events: int = 10
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
        if self.min_compact_events < 1:
            raise ValueError("min_compact_events must be >= 1")
        if self.hawkes_window_days is not None and self.hawkes_window_days <= 0:
            raise ValueError("hawkes_window_days must be positive")
        if self.hawkes_min_events < 2:
            raise ValueError("hawkes_min_events must be >= 2")


def stream_config_from_env(env: dict | None = None) -> dict:
    """Resolve ``REPRO_WAL_DIR`` / ``REPRO_COMPACT_THRESHOLD`` /
    ``REPRO_GROUP_COMMIT``.

    Returns a partial kwargs dict for :class:`StreamConfig` holding
    only the values that resolved cleanly.  Malformed values warn
    (naming the offending value, per the repo's env-validation
    convention) and are omitted so the caller's defaults apply.
    """
    env = os.environ if env is None else env
    resolved: dict = {}
    raw = env.get(ENV_WAL_DIR)
    if raw is not None:
        path = Path(raw) if raw.strip() else None
        if path is None:
            warnings.warn(
                f"ignoring malformed {ENV_WAL_DIR}={raw!r} (empty path); "
                "streaming needs an explicit --wal-dir",
                RuntimeWarning,
                stacklevel=2,
            )
        elif path.exists() and not path.is_dir():
            warnings.warn(
                f"ignoring malformed {ENV_WAL_DIR}={raw!r} (exists and is "
                "not a directory); streaming needs an explicit --wal-dir",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            resolved["wal_dir"] = raw
    raw = env.get(ENV_COMPACT_THRESHOLD)
    if raw is not None:
        try:
            value = float(raw)
        except ValueError:
            value = None
        if value is None:
            warnings.warn(
                f"ignoring malformed {ENV_COMPACT_THRESHOLD}={raw!r} "
                f"(not a number); falling back to "
                f"{DEFAULT_COMPACT_THRESHOLD}",
                RuntimeWarning,
                stacklevel=2,
            )
        elif not (value > 0 and math.isfinite(value)):
            warnings.warn(
                f"ignoring malformed {ENV_COMPACT_THRESHOLD}={raw!r} "
                f"(must be a positive finite number); falling back to "
                f"{DEFAULT_COMPACT_THRESHOLD}",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            resolved["compact_threshold"] = value
    raw = env.get(ENV_GROUP_COMMIT)
    if raw is not None:
        lowered = raw.strip().lower()
        if lowered in {"1", "true", "yes", "on"}:
            resolved["group_commit"] = True
        elif lowered in {"0", "false", "no", "off"}:
            resolved["group_commit"] = False
        else:
            warnings.warn(
                f"ignoring malformed {ENV_GROUP_COMMIT}={raw!r} "
                "(expected a boolean like 1/0/true/false); falling back "
                "to per-batch commits",
                RuntimeWarning,
                stacklevel=2,
            )
    return resolved
