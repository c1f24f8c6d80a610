"""Content-addressed memoization for the pipeline's hot paths.

The paper's production pipeline ran repeatedly over a *growing* corpus
(ultimately 160M images): new crawls arrive, but yesterday's pHashes,
neighbourhoods, and associations are still valid.  Recomputing them on
every invocation is pure waste.  This module provides the caching
substrate the staged runner and the hashing kernels share:

* **Content addressing** — cache keys are sha256 fingerprints over the
  *inputs* of a computation: the raw arrays (dtype + shape + bytes),
  the config values that parameterise it, and :data:`CODE_VERSION`.
  Two runs that feed a kernel identical inputs hit the same entry no
  matter which run wrote it; any change to an input, a threshold, or
  the cache format yields a different key and a clean miss.  A false
  *miss* merely recomputes; a false *hit* would need a sha256
  collision.
* **Two tiers** — a bounded in-memory LRU (:class:`ContentCache` keeps
  the hottest entries live) over an optional on-disk tier that reuses
  the integrity-checked ``RPC1`` checkpoint container from
  :mod:`repro.utils.io`.  A corrupt, truncated, or stale disk entry is
  detected by the container's digest, reported in
  :class:`CacheStats.errors`, deleted, and treated as a miss — bad
  state can never flow back into a run.
* **Slots** — delta-aware callers (incremental clustering/association)
  use entries whose *key* identifies the computation and whose *value*
  carries its own input fingerprint, so a superset input can reuse the
  previous output as a starting point.  Such callers fetch with
  ``get(key, count=False)`` and classify the outcome themselves once
  they have compared fingerprints (full hit / delta / recompute).

Statistics (hits/misses/stores/evictions/bytes/deltas) accumulate on
:class:`CacheStats`; the runner snapshots them per stage onto
:class:`repro.core.results.StageReport`.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.utils.io import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "ContentCache",
    "fingerprint",
    "fingerprint_array",
]

# Bump when a cached computation's semantics or stored form change:
# every key embeds this, so old entries become unreachable instead of
# silently wrong.
CODE_VERSION = "repro-cache|v3"

_CHECKPOINT_PREFIX = "repro-cache-entry"


def _update_hasher(hasher, value) -> None:
    """Feed one value into a hash, tagged by type to avoid collisions
    between e.g. ``1`` and ``"1"`` or ``()`` and ``""``."""
    if value is None:
        hasher.update(b"\x00N")
    elif isinstance(value, bool):
        hasher.update(b"\x00B" + (b"1" if value else b"0"))
    elif isinstance(value, (int, np.integer)):
        hasher.update(b"\x00I" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"\x00F" + repr(float(value)).encode())
    elif isinstance(value, str):
        hasher.update(b"\x00S" + value.encode("utf-8"))
    elif isinstance(value, bytes):
        hasher.update(b"\x00Y" + value)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        hasher.update(
            b"\x00A" + str(arr.dtype).encode() + str(arr.shape).encode()
        )
        hasher.update(arr.tobytes())
    elif isinstance(value, (tuple, list)):
        hasher.update(b"\x00T" + str(len(value)).encode())
        for item in value:
            _update_hasher(hasher, item)
    elif isinstance(value, dict):
        hasher.update(b"\x00D" + str(len(value)).encode())
        for k in sorted(value, key=repr):
            _update_hasher(hasher, k)
            _update_hasher(hasher, value[k])
    elif isinstance(value, (set, frozenset)):
        hasher.update(b"\x00E" + str(len(value)).encode())
        for item in sorted(value, key=repr):
            _update_hasher(hasher, item)
    elif is_dataclass(value) and not isinstance(value, type):
        # Recurse into dataclass fields rather than pickling: pickle
        # serialises embedded sets in iteration order, which varies
        # with PYTHONHASHSEED across processes — a KYM entry's
        # ``tags`` frozenset would give every process a different
        # fingerprint for identical content.  The recursion routes
        # sets/dicts through the sorted branches above.
        hasher.update(b"\x00O" + type(value).__qualname__.encode())
        for f in fields(value):
            _update_hasher(hasher, f.name)
            _update_hasher(hasher, getattr(value, f.name))
    elif isinstance(getattr(value, "__dict__", None), dict):
        # Plain objects: hash their attribute dict (sorted), same
        # hash-randomization rationale as the dataclass branch.
        hasher.update(b"\x00O" + type(value).__qualname__.encode())
        _update_hasher(hasher, vars(value))
    else:
        # Remaining picklable objects (slotted classes without state
        # dicts, builtins).  Pickle bytes are deterministic for a fixed
        # object graph within one interpreter generation; a
        # representation change across versions can only cause a miss,
        # never a wrong hit.
        hasher.update(b"\x00P" + pickle.dumps(value, protocol=5))


def fingerprint(*parts) -> str:
    """sha256 hex digest over a heterogeneous tuple of inputs."""
    hasher = hashlib.sha256()
    for part in parts:
        _update_hasher(hasher, part)
    return hasher.hexdigest()


def fingerprint_array(array: np.ndarray) -> str:
    """sha256 hex digest of one array's dtype, shape, and contents."""
    return fingerprint(np.asarray(array))


@dataclass
class CacheStats:
    """Counters of one :class:`ContentCache`'s activity.

    ``deltas`` records incremental-work sizes by label (e.g.
    ``"cluster:pol:reused" -> 480`` unique hashes patched rather than
    recomputed); ``errors`` is the trail of corrupt/stale disk entries
    that were discarded and recomputed.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    errors: list[str] = field(default_factory=list)
    deltas: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            errors=list(self.errors),
            deltas=dict(self.deltas),
        )

    def since(self, base: "CacheStats") -> "CacheStats":
        """The activity that happened after ``base`` was snapshotted."""
        return CacheStats(
            hits=self.hits - base.hits,
            misses=self.misses - base.misses,
            stores=self.stores - base.stores,
            evictions=self.evictions - base.evictions,
            bytes_read=self.bytes_read - base.bytes_read,
            bytes_written=self.bytes_written - base.bytes_written,
            errors=self.errors[len(base.errors) :],
            deltas={
                label: count - base.deltas.get(label, 0)
                for label, count in self.deltas.items()
                if count != base.deltas.get(label, 0)
            },
        )

    def note_delta(self, label: str, count: int) -> None:
        self.deltas[label] = self.deltas.get(label, 0) + int(count)

    def summary(self) -> str:
        """Compact digest for stage reports, e.g. ``hits=4 misses=0``."""
        parts = [f"hits={self.hits}", f"misses={self.misses}"]
        if self.evictions:
            parts.append(f"evictions={self.evictions}")
        if self.errors:
            parts.append(f"errors={len(self.errors)}")
        if self.deltas:
            deltas = ",".join(
                f"{label}={count}" for label, count in sorted(self.deltas.items())
            )
            parts.append(f"delta[{deltas}]")
        return " ".join(parts)


class ContentCache:
    """Two-tier content-addressed cache: in-memory LRU over disk.

    Parameters
    ----------
    directory:
        On-disk tier root; ``None`` keeps the cache memory-only.
        Entries live at ``<directory>/<key[:2]>/<key>.ckpt`` in the
        integrity-checked ``RPC1`` container, so a warm run survives
        process restarts and corruption is detected, not trusted.
    max_memory_entries:
        LRU bound of the memory tier (least recently used evicts
        first; disk copies survive eviction).
    stats:
        Optional shared :class:`CacheStats`; a fresh one by default.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_memory_entries: int = 128,
        stats: CacheStats | None = None,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.directory = Path(directory) if directory is not None else None
        self.max_memory_entries = max_memory_entries
        self.stats = stats if stats is not None else CacheStats()
        self._memory: dict[str, object] = {}

    # -- keys ----------------------------------------------------------

    def key(self, kind: str, *parts) -> str:
        """Content-addressed key: sha256 over code version + kind + inputs."""
        return fingerprint(CODE_VERSION, kind, *parts)

    def _entry_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / key[:2] / f"{key}.ckpt"

    def _entry_fingerprint(self, key: str) -> str:
        return f"{_CHECKPOINT_PREFIX}|{CODE_VERSION}|{key}"

    # -- tiers ---------------------------------------------------------

    def get(self, key: str, *, count: bool = True) -> tuple[bool, object]:
        """``(hit, value)``; corrupt/stale disk entries count as misses.

        ``count=False`` leaves the hit/miss counters to the caller —
        slot entries are only a *real* hit once the caller has compared
        the stored input fingerprint against the live inputs.
        """
        if key in self._memory:
            value = self._memory.pop(key)  # re-insert: most recently used
            self._memory[key] = value
            if count:
                self.stats.hits += 1
            return True, value
        path = self._entry_path(key)
        if path is not None:
            try:
                size = path.stat().st_size
                payload = load_checkpoint(
                    path, fingerprint=self._entry_fingerprint(key)
                )
                if not isinstance(payload, dict) or "value" not in payload:
                    raise CheckpointError(f"{path}: cache entry missing value")
            except FileNotFoundError:
                # Absent, or removed between stat and read by another
                # run sharing the directory (a corrupt-entry unlink, or
                # ``cache clear``): a plain miss.
                pass
            except CheckpointError as error:
                # Bad entry: report, delete, recompute.
                self.stats.errors.append(str(error))
                try:
                    path.unlink()
                except OSError:
                    pass
            else:
                value = payload["value"]
                self._remember(key, value)
                if count:
                    self.stats.hits += 1
                self.stats.bytes_read += size
                return True, value
        if count:
            self.stats.misses += 1
        return False, None

    def put(self, key: str, value, *, disk: bool = True) -> None:
        """Store ``value`` in the memory tier and (optionally) on disk."""
        self._remember(key, value)
        path = self._entry_path(key)
        if disk and path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_checkpoint(
                path, {"value": value}, fingerprint=self._entry_fingerprint(key)
            )
            self.stats.stores += 1
            try:
                self.stats.bytes_written += path.stat().st_size
            except OSError:
                pass

    def get_or_compute(
        self, key: str, compute: Callable[[], object], *, disk: bool = True
    ):
        hit, value = self.get(key)
        if hit:
            return value
        value = compute()
        self.put(key, value, disk=disk)
        return value

    def _remember(self, key: str, value) -> None:
        if key in self._memory:
            self._memory.pop(key)
        self._memory[key] = value
        while len(self._memory) > self.max_memory_entries:
            oldest = next(iter(self._memory))
            self._memory.pop(oldest)
            self.stats.evictions += 1

    # -- inspection / maintenance --------------------------------------

    def entries(self) -> list[tuple[str, int]]:
        """``(key, bytes)`` of every on-disk entry, sorted by key."""
        if self.directory is None or not self.directory.exists():
            return []
        found = []
        for path in sorted(self.directory.glob("*/*.ckpt")):
            try:
                found.append((path.stem, path.stat().st_size))
            except OSError:
                continue
        return found

    def total_bytes(self) -> int:
        return sum(size for _, size in self.entries())

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk entries removed."""
        self._memory.clear()
        removed = 0
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*/*.ckpt"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def __len__(self) -> int:
        return len(self._memory)
