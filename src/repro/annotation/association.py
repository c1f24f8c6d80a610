"""Association of community images to memes — the paper's Step 6.

Every image posted on any Web community (Twitter, Reddit, /pol/, Gab) is
compared against the annotated clusters' medoids; an image belongs to the
nearest medoid within Hamming distance θ = 8.  This is the step the paper
benchmarks at 73 images/second on two GPUs (Section 7); here it is one
blocked broadcast popcount per batch of unique pHashes
(:func:`repro.hashing.pairwise.nearest_medoid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# hashing before matcher: matcher pulls in annotation.kym, whose import
# must find repro.hashing already initialised (kym -> hashing ->
# utils -> communities.world -> kym would otherwise cycle).
from repro.hashing.pairwise import nearest_medoid
from repro.annotation.matcher import DEFAULT_THETA
from repro.utils.parallel import (
    Executor,
    ParallelConfig,
    array_splitter,
    resolve_parallel,
    shard_bounds,
    strict_supervision,
)

__all__ = ["AssociationResult", "associate_hashes"]

UNASSIGNED = -1


def _merge_association_parts(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Reassemble bisected shard outputs: per-column concatenation."""
    return (
        np.concatenate([part[0] for part in parts]),
        np.concatenate([part[1] for part in parts]),
    )


@dataclass(frozen=True)
class AssociationResult:
    """Outcome of associating a batch of image hashes to clusters.

    Attributes
    ----------
    cluster_ids:
        Per input hash: the matched cluster id, or ``-1``.
    distances:
        Per input hash: Hamming distance to the matched medoid, or ``-1``.
    n_assigned:
        Number of inputs that matched some cluster.
    """

    cluster_ids: np.ndarray
    distances: np.ndarray

    @property
    def n_assigned(self) -> int:
        return int(np.sum(self.cluster_ids != UNASSIGNED))

    @property
    def assigned_fraction(self) -> float:
        if self.cluster_ids.size == 0:
            return 0.0
        return self.n_assigned / self.cluster_ids.size


def _associate_unique_shard(
    unique: np.ndarray,
    id_array: np.ndarray,
    medoid_array: np.ndarray,
    theta: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-medoid lookups for one shard of unique hashes.

    Module-level so process workers can receive pickled shards.
    :func:`~repro.hashing.pairwise.nearest_medoid` breaks ties to the
    smallest medoid position; ``id_array`` ascends with position, so
    that is the smallest cluster id.
    """
    position, unique_distance = nearest_medoid(unique, medoid_array, theta)
    unique_cluster = np.full(unique.size, UNASSIGNED, dtype=np.int64)
    matched = np.flatnonzero(position >= 0)
    unique_cluster[matched] = id_array[position[matched]]
    return unique_cluster, unique_distance


def associate_hashes(
    hashes: np.ndarray,
    medoid_hashes: dict[int, np.uint64 | int],
    *,
    theta: int = DEFAULT_THETA,
    parallel: ParallelConfig | None = None,
) -> AssociationResult:
    """Associate image pHashes to the nearest annotated-cluster medoid.

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array of image pHashes (duplicates welcome; the
        lookup is memoised over unique values).
    medoid_hashes:
        ``{cluster_id: medoid pHash}`` for the *annotated* clusters.
    theta:
        Matching threshold (paper: 8).  Nearest medoid wins; ties break
        to the smallest cluster id for determinism.
    parallel:
        Optional executor config; unique hashes are sharded across
        workers and results reassembled in order, identical to the
        serial lookup for any worker count.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
    n = hashes.size
    cluster_ids = np.full(n, UNASSIGNED, dtype=np.int64)
    distances = np.full(n, -1, dtype=np.int64)
    if n == 0 or not medoid_hashes:
        return AssociationResult(cluster_ids=cluster_ids, distances=distances)

    ordered = sorted(medoid_hashes.items())
    id_array = np.array([cid for cid, _ in ordered], dtype=np.int64)
    medoid_array = np.array([h for _, h in ordered], dtype=np.uint64)

    unique, inverse = np.unique(hashes, return_inverse=True)
    # numpy >= 2.0 shapes return_inverse like the input; flatten so the
    # memoised scatter below works on both 1.26 and 2.x.
    inverse = inverse.reshape(-1)
    parallel = resolve_parallel(parallel)
    if parallel.is_serial or unique.size < parallel.workers * 2:
        unique_cluster, unique_distance = _associate_unique_shard(
            unique, id_array, medoid_array, theta
        )
    else:
        sup = Executor(parallel).supervised_starmap(
            _associate_unique_shard,
            [
                (unique[start:stop], id_array, medoid_array, theta)
                for start, stop in shard_bounds(unique.size, parallel)
            ],
            policy=strict_supervision(parallel),
            split=array_splitter(0),
            merge=_merge_association_parts,
        )
        unique_cluster, unique_distance = _merge_association_parts(sup.results)

    cluster_ids[:] = unique_cluster[inverse]
    distances[:] = unique_distance[inverse]
    return AssociationResult(cluster_ids=cluster_ids, distances=distances)
