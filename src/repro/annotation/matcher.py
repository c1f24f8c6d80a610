"""Cluster annotation — the paper's Step 5.

Cluster medoids are compared against all (screenshot-filtered) KYM gallery
pHashes; an entry annotates a cluster when at least one of its images is
within Hamming distance θ = 8 of the medoid.  The *representative* entry
is the one with the largest proportion of its gallery matching the medoid,
ties broken by minimum mean Hamming distance (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.annotation.kym import KYMSite
from repro.hashing.index import radius_join
from repro.utils.bitops import popcount

__all__ = ["EntryMatch", "ClusterAnnotation", "annotate_clusters", "DEFAULT_THETA"]

DEFAULT_THETA = 8


@dataclass(frozen=True)
class EntryMatch:
    """How one KYM entry matched one cluster medoid."""

    entry_name: str
    n_matches: int
    gallery_size: int
    mean_distance: float

    @property
    def proportion(self) -> float:
        """Fraction of the entry's gallery matching the medoid."""
        return self.n_matches / self.gallery_size if self.gallery_size else 0.0


@dataclass(frozen=True)
class ClusterAnnotation:
    """The annotation of one cluster (Step 5 output).

    Attributes
    ----------
    cluster_id:
        The DBSCAN cluster id.
    medoid_hash:
        pHash of the cluster medoid.
    matches:
        Every matching KYM entry with its match statistics.
    representative:
        The representative entry name (the paper's per-cluster label).
    meme_names, people, cultures:
        Unions over *all* matching entries — the paper's custom metric
        (Section 2.3) explicitly uses all annotations per category, not
        just the representative.
    """

    cluster_id: int
    medoid_hash: np.uint64
    matches: tuple[EntryMatch, ...]
    representative: str
    meme_names: frozenset[str]
    people: frozenset[str]
    cultures: frozenset[str]
    is_racist: bool
    is_politics: bool

    @property
    def n_entries(self) -> int:
        """Number of KYM entries annotating this cluster (Fig. 5a)."""
        return len(self.matches)


def annotate_clusters(
    medoid_hashes: dict[int, np.uint64 | int],
    site: KYMSite,
    *,
    theta: int = DEFAULT_THETA,
    exclude_screenshots: bool = True,
) -> dict[int, ClusterAnnotation]:
    """Annotate clusters against a KYM site.

    Parameters
    ----------
    medoid_hashes:
        ``{cluster_id: medoid pHash}`` from Step 3 + medoid computation.
    site:
        The annotation source.
    theta:
        Matching threshold (paper: 8).
    exclude_screenshots:
        Drop gallery images flagged as screenshots before matching — the
        output of Step 4 (either the classifier's or ground truth).

    Returns
    -------
    dict
        Only clusters with at least one matching entry are present.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    # Flatten galleries into one hash array with entry back-pointers.
    hashes: list[int] = []
    entry_of: list[int] = []
    gallery_sizes: list[int] = []
    for entry_index, entry in enumerate(site):
        gallery = entry.gallery
        if exclude_screenshots:
            gallery = [g for g in gallery if not g.is_screenshot]
        gallery_sizes.append(len(gallery))
        for image in gallery:
            hashes.append(int(image.phash))
            entry_of.append(entry_index)
    if not hashes:
        return {}
    hash_array = np.array(hashes, dtype=np.uint64)
    entry_array = np.array(entry_of, dtype=np.int64)
    medoids = np.array(
        [int(medoid) for medoid in medoid_hashes.values()], dtype=np.uint64
    )
    rows = radius_join(medoids, hash_array, theta)

    annotations: dict[int, ClusterAnnotation] = {}
    entries = list(site)
    for (cluster_id, medoid), row in zip(medoid_hashes.items(), rows):
        if row.size == 0:
            continue
        distances = popcount(hash_array[row] ^ np.uint64(int(medoid)))
        # Collect (n_matches, total_distance) per entry.
        stats: dict[int, tuple[int, int]] = {}
        for entry_index, distance in zip(
            entry_array[row].tolist(), distances.tolist()
        ):
            n, total = stats.get(entry_index, (0, 0))
            stats[entry_index] = (n + 1, total + distance)
        matches = tuple(
            sorted(
                (
                    EntryMatch(
                        entry_name=entries[entry_index].name,
                        n_matches=n,
                        gallery_size=gallery_sizes[entry_index],
                        mean_distance=total / n,
                    )
                    for entry_index, (n, total) in stats.items()
                ),
                key=lambda m: (-m.proportion, m.mean_distance, m.entry_name),
            )
        )
        representative = matches[0].entry_name
        matched_entries = [site[m.entry_name] for m in matches]
        rep_entry = site[representative]
        annotations[int(cluster_id)] = ClusterAnnotation(
            cluster_id=int(cluster_id),
            medoid_hash=np.uint64(medoid),
            matches=matches,
            representative=representative,
            meme_names=frozenset(m.entry_name for m in matches),
            people=frozenset().union(*(e.people for e in matched_entries)),
            cultures=frozenset().union(*(e.cultures for e in matched_entries)),
            is_racist=rep_entry.is_racist,
            is_politics=rep_entry.is_politics,
        )
    return annotations
