"""Association of community images to memes — the paper's Step 6.

Every image posted on any Web community (Twitter, Reddit, /pol/, Gab) is
compared against the annotated clusters' medoids; an image belongs to the
nearest medoid within Hamming distance θ = 8.  This is the step the paper
benchmarks at 73 images/second on two GPUs (Section 7); here it is one
serial :func:`repro.hashing.pairwise.nearest_medoid` call (a blocked
broadcast popcount) over the unique pHashes, scattered back to every
input.  Worker-pool fan-outs of that call did not pay on the
benchmark's worlds and were deleted (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# hashing before matcher: matcher pulls in annotation.kym, whose import
# must find repro.hashing already initialised (kym -> hashing ->
# utils -> communities.world -> kym would otherwise cycle).
from repro.hashing.pairwise import nearest_medoid
from repro.annotation.matcher import DEFAULT_THETA

__all__ = ["AssociationResult", "associate_hashes"]

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
    """

    cluster_ids: np.ndarray
    distances: np.ndarray


def associate_hashes(
    hashes: np.ndarray,
    medoid_hashes: dict[int, np.uint64 | int],
    *,
    theta: int = DEFAULT_THETA,
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
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
    if hashes.size == 0 or not medoid_hashes:
        return AssociationResult(
            cluster_ids=np.full(hashes.size, UNASSIGNED, dtype=np.int64),
            distances=np.full(hashes.size, -1, dtype=np.int64),
        )

    ordered = sorted(medoid_hashes.items())
    id_array = np.array([cid for cid, _ in ordered], dtype=np.int64)
    medoid_array = np.array([h for _, h in ordered], dtype=np.uint64)

    unique, inverse = np.unique(hashes, return_inverse=True)
    # numpy >= 2.0 shapes return_inverse like the input; flatten so the
    # memoised scatter below works on both 1.26 and 2.x.
    inverse = inverse.reshape(-1)
    # nearest_medoid breaks ties to the smallest medoid position, and
    # id_array ascends with position, so that is the smallest cluster id.
    position, unique_distance = nearest_medoid(unique, medoid_array, theta)
    unique_cluster = np.full(unique.size, UNASSIGNED, dtype=np.int64)
    matched = np.flatnonzero(position >= 0)
    unique_cluster[matched] = id_array[position[matched]]
    return AssociationResult(
        cluster_ids=unique_cluster[inverse],
        distances=unique_distance[inverse],
    )
