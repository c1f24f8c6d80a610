"""Persistence: post streams, occurrence tables, and checkpoints.

The paper released its (hashed) datasets alongside the pipeline; this
module provides the equivalent for the synthetic world — a compact NPZ
serialisation of post streams (hashes, never raw images, mirroring the
paper's privacy posture of keeping only URL + pHash) and a CSV export of
meme occurrences for external analysis.

It also holds the ``RPC1`` checkpoint container: an integrity-checked
pickle, written atomically.  The content cache
(:mod:`repro.core.cache`) stores every entry in one, and so do the
stream ingester's ``stream.ckpt`` and the serving index.  Layout::

    b"RPC1"                     magic + format version
    sha256(fingerprint+payload) 32 bytes, detects corruption/truncation
    len(fingerprint)            4 bytes big-endian
    fingerprint                 utf-8; binds the checkpoint to its
                                writer's identity (format, key)
    len(payload)                8 bytes big-endian
    payload                     pickled value

A checkpoint whose digest fails raises :class:`CheckpointError`; one
whose fingerprint differs from the reader's raises
:class:`StaleCheckpointError` (the cache treats both as a miss and
recomputes rather than trusting bad state).
"""

from __future__ import annotations

import csv
import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.communities.models import Post

__all__ = [
    "save_posts",
    "load_posts",
    "export_occurrences_csv",
    "CheckpointError",
    "CheckpointLock",
    "CheckpointLockError",
    "StaleCheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]

_CHECKPOINT_MAGIC = b"RPC1"


class CheckpointError(RuntimeError):
    """The checkpoint file is corrupt, truncated, or not a checkpoint."""


class StaleCheckpointError(CheckpointError):
    """The checkpoint is intact but belongs to a different run identity."""


class CheckpointLockError(RuntimeError):
    """Another live process already holds the directory's lock."""


class CheckpointLock:
    """Exclusive advisory lock on a directory of durable state.

    The stream ingester (:mod:`repro.stream`) holds it on its WAL
    directory for its whole life: two ingesters appending to one log
    and rewriting one ``stream.ckpt`` would interleave their state.  A
    second owner fails fast with :class:`CheckpointLockError` instead.

    The lock is a ``.lock`` file created with ``O_CREAT | O_EXCL``
    (atomic on POSIX and Windows) holding the owner's PID.  A lock
    whose PID is no longer alive, or whose mtime is older than
    ``stale_after_s`` (a crashed run on another host whose PID got
    recycled), is *stale*: it is broken and re-acquired.

    Usable as a context manager::

        with CheckpointLock(wal_dir):
            ...
    """

    def __init__(
        self, directory: str | Path, *, stale_after_s: float = 24 * 3600.0
    ) -> None:
        if stale_after_s <= 0:
            raise ValueError("stale_after_s must be positive")
        self.path = Path(directory) / ".lock"
        self.stale_after_s = stale_after_s
        self._held = False

    @property
    def held(self) -> bool:
        return self._held

    def _owner_pid(self) -> int | None:
        try:
            return int(self.path.read_text().strip() or 0) or None
        except (OSError, ValueError):
            return None

    def _is_stale(self) -> bool:
        pid = self._owner_pid()
        if pid is not None:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # owner died without releasing
            except PermissionError:
                pass  # alive, owned by someone else
            except OSError:
                pass  # unknown: fall through to the mtime check
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return False  # vanished: acquire() will just retry
        return age > self.stale_after_s

    def acquire(self) -> "CheckpointLock":
        """Take the lock or raise :class:`CheckpointLockError`.

        A stale lock (dead PID, or mtime past ``stale_after_s``) is
        removed and acquisition retried once.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                if attempt == 0 and self._is_stale():
                    try:
                        self.path.unlink()
                    except OSError:
                        pass
                    continue
                owner = self._owner_pid()
                raise CheckpointLockError(
                    f"directory {self.path.parent} is locked by "
                    f"{'pid ' + str(owner) if owner else 'another run'} "
                    f"({self.path}); two owners would interleave their "
                    "writes — wait for it to finish, use a different "
                    "directory, or delete the lock file if you are sure "
                    "the owner is gone"
                ) from None
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            self._held = True
            return self
        raise CheckpointLockError(  # pragma: no cover - second race loser
            f"could not acquire {self.path} after breaking a stale lock"
        )

    def release(self) -> None:
        """Drop the lock (idempotent; only removes a lock we hold)."""
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "CheckpointLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def save_checkpoint(path: str | Path, payload: object, *, fingerprint: str) -> None:
    """Atomically write ``payload`` as an integrity-checked checkpoint.

    The write goes to a uniquely-named sibling temp file first (fsynced,
    then renamed into place), so a crash mid-write never leaves a
    half-written file under the checkpoint's name — and two processes
    writing the same entry never trample each other's temp file.  The
    latter matters for the content-addressed cache, which is shared
    between runs without a :class:`CheckpointLock`: concurrent writers
    of one key race only on the final rename, and both rename a
    complete, identical blob.
    """
    path = Path(path)
    fingerprint_bytes = fingerprint.encode("utf-8")
    payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(fingerprint_bytes + payload_bytes).digest()
    blob = (
        _CHECKPOINT_MAGIC
        + digest
        + len(fingerprint_bytes).to_bytes(4, "big")
        + fingerprint_bytes
        + len(payload_bytes).to_bytes(8, "big")
        + payload_bytes
    )
    fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path: str | Path, *, fingerprint: str | None = None) -> object:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises
    ------
    CheckpointError
        On bad magic, truncation, or digest mismatch.
    StaleCheckpointError
        When ``fingerprint`` is given and differs from the stored one.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(_CHECKPOINT_MAGIC) + 32 + 4:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    digest = blob[4:36]
    cursor = 36
    fp_len = int.from_bytes(blob[cursor : cursor + 4], "big")
    cursor += 4
    if len(blob) < cursor + fp_len + 8:
        raise CheckpointError(f"{path}: truncated checkpoint fingerprint")
    stored_fingerprint = blob[cursor : cursor + fp_len]
    cursor += fp_len
    payload_len = int.from_bytes(blob[cursor : cursor + 8], "big")
    cursor += 8
    payload_bytes = blob[cursor : cursor + payload_len]
    if len(payload_bytes) != payload_len or len(blob) != cursor + payload_len:
        raise CheckpointError(f"{path}: truncated or padded checkpoint payload")
    if hashlib.sha256(stored_fingerprint + payload_bytes).digest() != digest:
        raise CheckpointError(f"{path}: checkpoint digest mismatch (corrupted)")
    if fingerprint is not None and stored_fingerprint != fingerprint.encode("utf-8"):
        raise StaleCheckpointError(
            f"{path}: checkpoint belongs to a different run "
            f"({stored_fingerprint.decode('utf-8', 'replace')!r})"
        )
    try:
        return pickle.loads(payload_bytes)
    except Exception as error:  # digest passed but unpicklable payload
        raise CheckpointError(f"{path}: undecodable checkpoint payload: {error}")

_NONE_SCORE = np.iinfo(np.int64).min


def save_posts(posts: list[Post], path: str | Path) -> None:
    """Serialise posts to a compressed NPZ file.

    Only metadata is stored (community, timestamp, pHash, image id,
    score, subreddit, ground-truth template/root); images were already
    discarded at hashing time, as in the paper's Step 1.
    """
    path = Path(path)
    np.savez_compressed(
        path,
        community=np.array([p.community for p in posts], dtype=np.str_),
        timestamp=np.array([p.timestamp for p in posts], dtype=np.float64),
        phash=np.array([p.phash for p in posts], dtype=np.uint64),
        image_id=np.array([p.image_id for p in posts], dtype=np.str_),
        score=np.array(
            [_NONE_SCORE if p.score is None else p.score for p in posts],
            dtype=np.int64,
        ),
        subreddit=np.array(
            ["" if p.subreddit is None else p.subreddit for p in posts],
            dtype=np.str_,
        ),
        template_name=np.array(
            ["" if p.template_name is None else p.template_name for p in posts],
            dtype=np.str_,
        ),
        root_community=np.array(
            ["" if p.root_community is None else p.root_community for p in posts],
            dtype=np.str_,
        ),
    )


def load_posts(path: str | Path) -> list[Post]:
    """Inverse of :func:`save_posts`."""
    with np.load(Path(path), allow_pickle=False) as data:
        n = data["timestamp"].size
        return [
            Post(
                community=str(data["community"][i]),
                timestamp=float(data["timestamp"][i]),
                phash=np.uint64(data["phash"][i]),
                image_id=str(data["image_id"][i]),
                score=(
                    None
                    if int(data["score"][i]) == _NONE_SCORE
                    else int(data["score"][i])
                ),
                subreddit=str(data["subreddit"][i]) or None,
                template_name=str(data["template_name"][i]) or None,
                root_community=str(data["root_community"][i]) or None,
            )
            for i in range(n)
        ]


def export_occurrences_csv(result, path: str | Path) -> int:
    """Write the Step 6 occurrence table as CSV; returns rows written.

    Columns: community, timestamp, phash (hex), cluster (community:id),
    entry, racist, politics, score, subreddit.
    """
    path = Path(path)
    occurrences = result.occurrences
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "community",
                "timestamp",
                "phash",
                "cluster",
                "entry",
                "racist",
                "politics",
                "score",
                "subreddit",
            ]
        )
        for row, post in enumerate(occurrences.posts):
            key = result.cluster_keys[occurrences.cluster_indices[row]]
            writer.writerow(
                [
                    post.community,
                    f"{post.timestamp:.6f}",
                    format(int(post.phash), "016x"),
                    str(key),
                    occurrences.entry_names[row],
                    int(occurrences.is_racist[row]),
                    int(occurrences.is_politics[row]),
                    "" if post.score is None else post.score,
                    post.subreddit or "",
                ]
            )
    return len(occurrences.posts)
