"""Durable streaming ingestion (``repro.stream``).

The online counterpart of the batch pipeline: a WAL-backed ingester
(:class:`StreamIngester`) that consumes a resumable event cursor
(:class:`EventSource`), keeps index/cluster/association state current
incrementally, and pins the acceptance invariant that at every
compaction point — and after any single crash/recovery — its state is
bit-identical to a cold batch run over the same event prefix.
"""

from repro.stream.config import DEFAULT_COMPACT_THRESHOLD, StreamConfig
from repro.stream.ingester import StreamIngester, StreamReport, state_equals
from repro.stream.source import EventSource, PrefixWorld
from repro.stream.wal import WALCorruptError, WALError, WriteAheadLog

__all__ = [
    "DEFAULT_COMPACT_THRESHOLD",
    "EventSource",
    "PrefixWorld",
    "StreamConfig",
    "StreamIngester",
    "StreamReport",
    "WALCorruptError",
    "WALError",
    "WriteAheadLog",
    "state_equals",
]
