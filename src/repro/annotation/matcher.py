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

__all__ = [
    "EntryMatch",
    "ClusterAnnotation",
    "KYMGallery",
    "annotate_clusters",
    "DEFAULT_THETA",
]

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


class KYMGallery:
    """Step 5's match target: every KYM gallery, flattened once.

    The galleries of ``site`` after Step 4's screenshot filter
    (``exclude_screenshots``) become one ``uint64`` hash array with an
    entry back-pointer per hash, plus each entry's filtered gallery
    size.  Build it once the screenshot decision is made (the classifier
    mode re-flags gallery images in place) and annotate every
    community's medoids against it.
    """

    def __init__(
        self,
        site: KYMSite,
        *,
        theta: int = DEFAULT_THETA,
        exclude_screenshots: bool = True,
    ) -> None:
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.site = site
        self.theta = int(theta)
        self.entries = list(site)
        hashes: list[int] = []
        entry_of: list[int] = []
        sizes: list[int] = []
        for entry_index, entry in enumerate(self.entries):
            gallery = entry.gallery
            if exclude_screenshots:
                gallery = [g for g in gallery if not g.is_screenshot]
            sizes.append(len(gallery))
            hashes.extend(int(image.phash) for image in gallery)
            entry_of.extend([entry_index] * len(gallery))
        self.hashes = np.array(hashes, dtype=np.uint64)
        self.entry_of = np.array(entry_of, dtype=np.int64)
        self.sizes = sizes


def annotate_clusters(
    medoid_hashes: dict[int, np.uint64 | int], gallery: KYMGallery
) -> dict[int, ClusterAnnotation]:
    """Annotate clusters against a KYM gallery.

    Parameters
    ----------
    medoid_hashes:
        ``{cluster_id: medoid pHash}`` from Step 3 + medoid computation.
    gallery:
        The screenshot-filtered galleries and the matching threshold θ
        (paper: 8), built once per screenshot decision.

    Returns
    -------
    dict
        Only clusters with at least one matching entry are present.
    """
    if not gallery.hashes.size or not medoid_hashes:
        return {}
    hash_array, entry_array = gallery.hashes, gallery.entry_of
    medoids = np.array(
        [int(medoid) for medoid in medoid_hashes.values()], dtype=np.uint64
    )
    rows = radius_join(medoids, hash_array, gallery.theta)

    site, entries = gallery.site, gallery.entries
    annotations: dict[int, ClusterAnnotation] = {}
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
                        gallery_size=gallery.sizes[entry_index],
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
