"""Association of community images to memes — the paper's Step 6.

Every image posted on any Web community (Twitter, Reddit, /pol/, Gab) is
compared against the annotated clusters' medoids; an image belongs to the
nearest medoid within Hamming distance θ = 8.  This is the step the paper
benchmarks at 73 images/second on two GPUs (Section 7); here it is one
serial :func:`repro.hashing.pairwise.nearest_medoid` call (a blocked
broadcast popcount) over the unique pHashes, scattered back to every
input.  Worker-pool fan-outs of that call did not pay on the
benchmark's worlds and were deleted (DESIGN.md §6).

:func:`reassociate` is the same step after the medoid set changed (a
stream compaction): from the association before the change, only the
hashes whose answer the change can move pay the full comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# hashing before matcher: matcher pulls in annotation.kym, whose import
# must find repro.hashing already initialised (kym -> hashing ->
# utils -> communities.world -> kym would otherwise cycle).
from repro.hashing.pairwise import nearest_medoid
from repro.annotation.matcher import DEFAULT_THETA

__all__ = ["AssociationResult", "associate_hashes", "reassociate"]

UNASSIGNED = -1


@dataclass(frozen=True)
class AssociationResult:
    """Outcome of associating a batch of image hashes to clusters.

    Attributes
    ----------
    cluster_ids:
        Per input hash: the matched cluster id, or ``-1``.
    distances:
        Per input hash: Hamming distance to the matched medoid, or ``-1``.
    tied:
        Per input hash, when asked for: whether a second medoid lies at
        the matched distance (``False`` where nothing matched).
    """

    cluster_ids: np.ndarray
    distances: np.ndarray
    tied: np.ndarray | None = None


def associate_hashes(
    hashes: np.ndarray,
    medoid_hashes: dict[int, np.uint64 | int],
    *,
    theta: int = DEFAULT_THETA,
    return_ties: bool = False,
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
    return_ties:
        Also fill :attr:`AssociationResult.tied`, which
        :func:`reassociate` needs of the association it starts from.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
    if hashes.size == 0 or not medoid_hashes:
        return AssociationResult(
            cluster_ids=np.full(hashes.size, UNASSIGNED, dtype=np.int64),
            distances=np.full(hashes.size, -1, dtype=np.int64),
            tied=np.zeros(hashes.size, dtype=bool) if return_ties else None,
        )

    id_array, medoid_array = _by_cluster_id(medoid_hashes)
    unique, inverse = np.unique(hashes, return_inverse=True)
    # numpy >= 2.0 shapes return_inverse like the input; flatten so the
    # memoised scatter below works on both 1.26 and 2.x.
    inverse = inverse.reshape(-1)
    # nearest_medoid breaks ties to the smallest medoid position, and
    # id_array ascends with position, so that is the smallest cluster id.
    position, unique_distance, *tied = nearest_medoid(
        unique, medoid_array, theta, return_ties=return_ties
    )
    unique_cluster = np.full(unique.size, UNASSIGNED, dtype=np.int64)
    matched = np.flatnonzero(position >= 0)
    unique_cluster[matched] = id_array[position[matched]]
    return AssociationResult(
        cluster_ids=unique_cluster[inverse],
        distances=unique_distance[inverse],
        tied=tied[0][inverse] if return_ties else None,
    )


def reassociate(
    hashes: np.ndarray,
    previous: AssociationResult,
    previous_medoids: dict[int, np.uint64 | int],
    medoid_hashes: dict[int, np.uint64 | int],
    *,
    theta: int = DEFAULT_THETA,
) -> AssociationResult:
    """Step 6 against a changed medoid set, from the association before it.

    ``previous`` is ``associate_hashes(hashes[:k], previous_medoids,
    theta=theta, return_ties=True)`` for its length ``k``.  The result
    equals ``associate_hashes(hashes, medoid_hashes, theta=theta,
    return_ties=True)``, but a hash of the prefix whose winner was the
    only medoid at its distance compares only against the *added*
    medoids, those whose hash ``previous_medoids`` did not hold: every
    other medoid it keeps lies farther than its winner, whichever id a
    kept hash now has.  A hash whose winner's hash is gone, a hash that
    was tied, and every hash past the prefix get the full comparison.
    The rule stays (distance, smallest cluster id).
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
    k = previous.cluster_ids.size
    if k > hashes.size:
        raise ValueError("previous association is longer than the hashes")
    if not medoid_hashes:
        return associate_hashes(hashes, medoid_hashes, theta=theta, return_ties=True)

    ids, medoids = _by_cluster_id(medoid_hashes)
    old_ids, old_medoids = _by_cluster_id(previous_medoids)
    kept, first, count = np.unique(medoids, return_index=True, return_counts=True)
    added = np.flatnonzero(~np.isin(medoids, old_medoids))

    # The prefix's old winners: their hash, and where it sits in the new set.
    cluster, distance = previous.cluster_ids, previous.distances
    matched = np.flatnonzero(cluster >= 0)
    winner = old_medoids[np.searchsorted(old_ids, cluster[matched])]
    slot = np.minimum(np.searchsorted(kept, winner), kept.size - 1)
    survives = kept[slot] == winner
    full = np.ones(hashes.size, dtype=bool)
    full[:k] = previous.tied
    full[matched[~survives]] = True

    cheap = np.flatnonzero(~full)
    # Candidate per cheap hash: the smallest id now holding its old
    # winner's hash, at the old distance (none for an unmatched hash).
    best_id = np.full(k, UNASSIGNED, dtype=np.int64)
    best_id[matched[survives]] = ids[first[slot[survives]]]
    best_tied = np.zeros(k, dtype=bool)
    best_tied[matched[survives]] = count[slot[survives]] > 1
    best_id, best_distance = best_id[cheap], distance[cheap].copy()
    best_tied = best_tied[cheap]
    if added.size and cheap.size:
        position, near, near_tied = nearest_medoid(
            hashes[cheap], medoids[added], theta, return_ties=True
        )
        hit = position >= 0
        near_id = np.where(hit, ids[added][np.maximum(position, 0)], UNASSIGNED)
        equal = hit & (best_id >= 0) & (near == best_distance)
        take = hit & (
            (best_id < 0)
            | (near < best_distance)
            | (equal & (near_id < best_id))
        )
        best_id = np.where(take, near_id, best_id)
        best_distance = np.where(take, near, best_distance)
        best_tied = np.where(equal, True, np.where(take, near_tied, best_tied))

    out_id = np.empty(hashes.size, dtype=np.int64)
    out_distance = np.empty(hashes.size, dtype=np.int64)
    out_tied = np.empty(hashes.size, dtype=bool)
    out_id[cheap], out_distance[cheap], out_tied[cheap] = (
        best_id,
        best_distance,
        best_tied,
    )
    rest = np.flatnonzero(full)
    fresh = associate_hashes(
        hashes[rest], medoid_hashes, theta=theta, return_ties=True
    )
    out_id[rest], out_distance[rest], out_tied[rest] = (
        fresh.cluster_ids,
        fresh.distances,
        fresh.tied,
    )
    return AssociationResult(
        cluster_ids=out_id, distances=out_distance, tied=out_tied
    )


def _by_cluster_id(
    medoid_hashes: dict[int, np.uint64 | int],
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ids ascending, and their medoid hashes in that order."""
    ordered = sorted(medoid_hashes.items())
    ids = np.array([cid for cid, _ in ordered], dtype=np.int64)
    hashes = np.array([int(h) for _, h in ordered], dtype=np.uint64)
    return ids, hashes
