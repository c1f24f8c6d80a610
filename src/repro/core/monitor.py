"""Real-time meme identification — the paper's deployment scenario.

Discussion section: "our pipeline can already be used by social network
providers to assist the identification of hateful content; for instance,
Facebook is taking steps to ban Pepe the Frog used in the context of
hate... our methodology can help them automatically identify hateful
variants."

:class:`MemeMonitor` packages a finished pipeline run for that use: it
holds the annotated cluster medoids and classifies incoming images —
raster or pHash — into known memes with their racist/politics flags,
through the same nearest-medoid kernel as batch association
(:func:`repro.hashing.pairwise.nearest_medoid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.annotation.matcher import DEFAULT_THETA
from repro.core.results import ClusterKey, PipelineResult
from repro.hashing.pairwise import nearest_medoid
from repro.hashing.phash import phash

__all__ = ["MonitorVerdict", "MemeMonitor"]


def _validated_hash_array(hashes) -> np.ndarray:
    """Coerce a batch of pHashes to contiguous uint64, rejecting garbage.

    The uint64 range check must happen *before* the dtype conversion:
    ``np.ascontiguousarray(x, dtype=np.uint64)`` wraps negative and
    oversized inputs modulo ``2**64`` without complaint.
    """
    arr = np.asarray(hashes)
    if arr.dtype.kind == "f" and not isinstance(hashes, np.ndarray):
        # numpy promotes mixed-magnitude python-int sequences (e.g.
        # [5, 2**63]) to float64; re-coerce exactly via the object path.
        arr = np.asarray(hashes, dtype=object)
    if arr.ndim != 1:
        raise ValueError(
            f"classify_batch expects a 1-D array of pHashes, got ndim={arr.ndim}"
        )
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    if arr.dtype == np.uint64:
        return np.ascontiguousarray(arr)
    if arr.dtype.kind == "u":  # narrower unsigned: always in range
        return np.ascontiguousarray(arr, dtype=np.uint64)
    if arr.dtype.kind == "i":
        negative = np.flatnonzero(arr < 0)
        if negative.size:
            index = int(negative[0])
            raise ValueError(
                f"pHash at index {index} is negative ({int(arr[index])}); "
                "hashes must lie in [0, 2**64)"
            )
        return np.ascontiguousarray(arr, dtype=np.uint64)
    if arr.dtype == object:
        # Elementwise sweeps instead of a Python-level loop: one type
        # sweep, one exact-integer range sweep over the prefix before
        # the first type error (so the first offending element in
        # *input order* still wins, whatever kind of garbage it is),
        # then a single exact object->uint64 cast.
        is_integer = np.frompyfunc(
            lambda v: isinstance(v, (int, np.integer))
            and not isinstance(v, bool),
            1,
            1,
        )(arr).astype(bool)
        type_bad = np.flatnonzero(~is_integer)
        limit = int(type_bad[0]) if type_bad.size else arr.size
        if limit:
            as_int = np.frompyfunc(int, 1, 1)(arr[:limit])
            range_bad = np.flatnonzero((as_int < 0) | (as_int >= 2**64))
            if range_bad.size:
                index = int(range_bad[0])
                raise ValueError(
                    f"pHash at index {index} ({int(as_int[index])}) outside "
                    "the unsigned 64-bit range [0, 2**64)"
                )
        if type_bad.size:
            index = limit
            raise TypeError(
                f"pHash at index {index} is {type(arr[index]).__name__}, "
                "expected an integer"
            )
        return as_int.astype(np.uint64)
    raise TypeError(
        f"classify_batch expects integer pHashes, got dtype {arr.dtype}"
    )


@dataclass(frozen=True)
class MonitorVerdict:
    """The monitor's decision for one image.

    Attributes
    ----------
    matched:
        Whether the image lies within θ of a known meme cluster medoid.
    cluster:
        The matched cluster's key, or ``None``.
    entry:
        The representative KYM entry of the matched cluster.
    distance:
        Hamming distance to the matched medoid (-1 if unmatched).
    is_racist, is_politics:
        Group flags of the matched meme (False when unmatched).
    """

    matched: bool
    cluster: ClusterKey | None
    entry: str | None
    distance: int
    is_racist: bool
    is_politics: bool

    @classmethod
    def no_match(cls) -> "MonitorVerdict":
        return cls(
            matched=False,
            cluster=None,
            entry=None,
            distance=-1,
            is_racist=False,
            is_politics=False,
        )


class MemeMonitor:
    """Classify incoming images against a pipeline run's annotated memes.

    Parameters
    ----------
    result:
        A completed pipeline run whose annotated clusters form the
        knowledge base.
    theta:
        Matching threshold (the paper's θ = 8).

    Examples
    --------
    >>> # monitor = MemeMonitor(pipeline_result)
    >>> # verdict = monitor.classify_image(uploaded_image)
    >>> # if verdict.matched and verdict.is_racist: flag_for_review()
    """

    def __init__(self, result: PipelineResult, *, theta: int = DEFAULT_THETA) -> None:
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.theta = theta
        self._keys = list(result.cluster_keys)
        self._annotations = [result.annotations[key] for key in self._keys]
        self._medoids = np.array(
            [annotation.medoid_hash for annotation in self._annotations],
            dtype=np.uint64,
        )
        self._racist_flags = np.array(
            [annotation.is_racist for annotation in self._annotations],
            dtype=bool,
        )
        self._politics_flags = np.array(
            [annotation.is_politics for annotation in self._annotations],
            dtype=bool,
        )

    def __len__(self) -> int:
        """Number of known meme clusters."""
        return len(self._keys)

    def close(self) -> None:
        """Release resources held beyond the interpreter heap.

        The base monitor owns only in-process arrays, so this is a
        no-op — but the serving layer calls it on every monitor it
        displaces (see ``MemeMatchService.reload_index``), so a
        subclass backed by external resources (e.g. published
        shared-memory segments) reclaims them by overriding this.
        Must be idempotent.
        """

    def classify_hash(self, value: np.uint64 | int) -> MonitorVerdict:
        """Classify a pre-computed pHash.

        Raises
        ------
        TypeError
            If ``value`` is not an integer-like scalar.
        ValueError
            If ``value`` lies outside the unsigned 64-bit range — a
            pHash is exactly 64 bits, so anything else is caller error
            (e.g. a sign-flipped or double-packed hash), not an unmatched
            image.
        """
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise TypeError(
                f"pHash must be an integer-like scalar, got {type(value).__name__}"
            )
        if not 0 <= value < 2**64:
            raise ValueError(
                f"pHash {value} outside the unsigned 64-bit range [0, 2**64)"
            )
        return self._verdicts(np.array([value], dtype=np.uint64))[0]

    def classify_image(self, image: np.ndarray) -> MonitorVerdict:
        """Hash a raster and classify it.

        Raises
        ------
        ValueError
            If ``image`` is empty or not a 2-D grayscale / 3-D
            ``(H, W, C)`` raster — caught here with a clear message
            rather than failing deep inside the pHash DCT.
        """
        raster = np.asarray(image)
        if raster.ndim not in (2, 3):
            raise ValueError(
                "classify_image expects a 2-D grayscale or 3-D (H, W, C) "
                f"raster, got ndim={raster.ndim}"
            )
        if raster.size == 0 or min(raster.shape[:2]) == 0:
            raise ValueError(
                f"classify_image got an empty raster of shape {raster.shape}"
            )
        return self.classify_hash(phash(raster))

    def classify_batch(self, hashes: np.ndarray) -> list[MonitorVerdict]:
        """Classify many pHashes (memoised over duplicates).

        Raises
        ------
        TypeError
            If ``hashes`` is not integer-typed (floats and arbitrary
            objects are rejected, mirroring :meth:`classify_hash`).
        ValueError
            If the input is not 1-D or any element lies outside the
            unsigned 64-bit range.  A blind ``astype(uint64)`` would
            silently wrap negative/oversized values modulo ``2**64``
            and classify the garbage hash; bad elements are rejected
            here with their index instead.
        """
        values = _validated_hash_array(hashes)
        if values.size == 0:
            return []
        unique, inverse = np.unique(values, return_inverse=True)
        unique_verdicts = self._verdicts(unique)
        return [unique_verdicts[j] for j in inverse]

    def _verdicts(self, unique: np.ndarray) -> list[MonitorVerdict]:
        """One verdict per hash, from the nearest annotated medoid."""
        position, distance = nearest_medoid(unique, self._medoids, self.theta)
        no_match = MonitorVerdict.no_match()
        keys = self._keys
        annotations = self._annotations
        racist = self._racist_flags
        politics = self._politics_flags
        return [
            no_match
            if position[i] < 0
            else MonitorVerdict(
                matched=True,
                cluster=keys[position[i]],
                entry=annotations[position[i]].representative,
                distance=int(distance[i]),
                is_racist=bool(racist[position[i]]),
                is_politics=bool(politics[position[i]]),
            )
            for i in range(unique.size)
        ]

    def flagged_entries(self) -> dict[str, tuple[bool, bool]]:
        """All known entries with their (racist, politics) flags."""
        flags: dict[str, tuple[bool, bool]] = {}
        for annotation in self._annotations:
            flags[annotation.representative] = (
                annotation.is_racist,
                annotation.is_politics,
            )
        return flags
