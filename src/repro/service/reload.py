"""Index checkpoints for the serving layer: save, validate, hot-load.

A long-lived matching service outlives any single pipeline run: new
crawls land, the pipeline re-runs, and the service must pick up the new
annotated clusters *without dropping traffic*.  The exchange format is
one integrity-checked checkpoint file (the same ``RPC1`` container as
the content cache's entries — :mod:`repro.utils.io`) holding a
complete :class:`~repro.core.results.PipelineResult`, bound to the
service fingerprint below so a cache entry can never be mistaken for
a serving index.

:func:`load_index` re-validates everything the service will depend on
— digest, fingerprint, result shape, medoid hash range — so a corrupt,
stale, or truncated checkpoint fails *here*, before the swap, and the
service keeps serving the old index (rollback is "don't swap").
"""

from __future__ import annotations

from pathlib import Path

from repro.core.cache import ContentCache
from repro.core.results import PipelineResult
from repro.utils.io import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "INDEX_FINGERPRINT",
    "IndexValidationError",
    "save_index",
    "load_index",
    "validate_result",
]

INDEX_FINGERPRINT = "repro-service-index|v1"


class IndexValidationError(CheckpointError):
    """The checkpoint decoded but does not hold a servable index."""


def save_index(result: PipelineResult, path: str | Path) -> None:
    """Write ``result`` as a serving-index checkpoint (atomic, digested)."""
    validate_result(result)
    save_checkpoint(Path(path), {"result": result}, fingerprint=INDEX_FINGERPRINT)


def load_index(
    path: str | Path, *, cache: ContentCache | None = None
) -> PipelineResult:
    """Load and validate a serving-index checkpoint.

    With a :class:`~repro.core.cache.ContentCache`, the decoded result
    is memoized in the cache's *memory tier* keyed on the checkpoint
    file's exact bytes: repeated hot reloads of an unchanged index skip
    the unpickling (the dominant cost at scale) and only re-validate.
    A changed, corrupt, or truncated file misses by construction —
    the key is the content.

    Raises
    ------
    repro.utils.io.CheckpointError
        On corruption, truncation, or a non-index fingerprint.
    IndexValidationError
        When the payload is intact but not a servable
        :class:`PipelineResult`.
    """
    path = Path(path)
    key = None
    if cache is not None:
        key = cache.key("service-index", path.read_bytes())
        hit, cached_result = cache.get(key)
        if hit:
            return validate_result(cached_result, source=str(path))
    payload = load_checkpoint(path, fingerprint=INDEX_FINGERPRINT)
    if not isinstance(payload, dict) or "result" not in payload:
        raise IndexValidationError(f"{path}: index payload missing 'result'")
    result = payload["result"]
    validate_result(result, source=str(path))
    if cache is not None and key is not None:
        # Memory tier only: the checkpoint file *is* the durable copy.
        cache.put(key, result, disk=False)
    return result


def validate_result(result: object, *, source: str = "result") -> PipelineResult:
    """Check that ``result`` can back a :class:`MemeMonitor`.

    Catches the failure modes a swap must never admit: wrong type,
    cluster keys without annotations, and medoid hashes outside the
    64-bit pHash range (which would poison every subsequent query).
    """
    if not isinstance(result, PipelineResult):
        raise IndexValidationError(
            f"{source}: expected a PipelineResult, got {type(result).__name__}"
        )
    for key in result.cluster_keys:
        annotation = result.annotations.get(key)
        if annotation is None:
            raise IndexValidationError(
                f"{source}: cluster key {key} has no annotation"
            )
        medoid = int(annotation.medoid_hash)
        if not 0 <= medoid < 2**64:
            raise IndexValidationError(
                f"{source}: cluster {key} medoid hash {medoid} outside "
                "the unsigned 64-bit range"
            )
    return result
