"""Tests for cluster annotation (Step 5)."""

import numpy as np
import pytest

from repro.annotation.kym import GalleryImage, KYMEntry, KYMSite
from repro.annotation.matcher import KYMGallery, annotate_clusters


def entry(name, hashes, *, category="memes", tags=(), people=(), cultures=(),
          screenshots=()):
    gallery = [GalleryImage(phash=np.uint64(h)) for h in hashes]
    gallery += [
        GalleryImage(phash=np.uint64(h), is_screenshot=True) for h in screenshots
    ]
    return KYMEntry(
        name=name,
        category=category,
        tags=frozenset(tags),
        people=frozenset(people),
        cultures=frozenset(cultures),
        origin="unknown",
        year=2016,
        gallery=gallery,
    )


class TestAnnotateClusters:
    def test_exact_match(self):
        site = KYMSite([entry("pepe", [100])])
        annotations = annotate_clusters({0: np.uint64(100)}, KYMGallery(site))
        assert annotations[0].representative == "pepe"
        assert annotations[0].n_entries == 1

    def test_threshold_respected(self):
        far = 0xFFFF  # 16 bits away from 0
        site = KYMSite([entry("pepe", [far])])
        assert annotate_clusters({0: np.uint64(0)}, KYMGallery(site, theta=8)) == {}
        assert annotate_clusters({0: np.uint64(0)}, KYMGallery(site, theta=16)) != {}

    def test_negative_theta(self):
        site = KYMSite([entry("pepe", [1])])
        with pytest.raises(ValueError):
            KYMGallery(site, theta=-1)

    def test_representative_by_proportion(self):
        # "big" matches with 1/4 of its gallery; "small" with 1/1.
        site = KYMSite(
            [
                entry("big", [0, 0xFFFF000000000000, 0x0000FFFF00000000, 0x00000000FFFF0000]),
                entry("small", [1]),
            ]
        )
        annotations = annotate_clusters({0: np.uint64(0)}, KYMGallery(site))
        assert annotations[0].representative == "small"
        assert annotations[0].meme_names == {"big", "small"}

    def test_tie_broken_by_mean_distance(self):
        # Both entries have one gallery image; "closer" at distance 0,
        # "further" at distance 2.
        site = KYMSite([entry("further", [0b11]), entry("closer", [0])])
        annotations = annotate_clusters({0: np.uint64(0)}, KYMGallery(site))
        assert annotations[0].representative == "closer"

    def test_screenshots_excluded_by_default(self):
        site = KYMSite([entry("pepe", [0xFFFFFFFF00000000], screenshots=[5])])
        annotations = annotate_clusters({0: np.uint64(5)}, KYMGallery(site))
        assert annotations == {}
        kept = annotate_clusters(
            {0: np.uint64(5)}, KYMGallery(site, exclude_screenshots=False)
        )
        assert kept[0].representative == "pepe"

    def test_metadata_union_over_all_matches(self):
        site = KYMSite(
            [
                entry("a", [0], people=("trump",), cultures=("4chan",)),
                entry("b", [1], people=("putin",), tags=("racism",)),
            ]
        )
        annotations = annotate_clusters({0: np.uint64(0)}, KYMGallery(site))
        assert annotations[0].people == {"trump", "putin"}
        assert annotations[0].cultures == {"4chan"}

    def test_flags_follow_representative(self):
        site = KYMSite(
            [
                entry("racist-meme", [0, 1, 2], tags=("racism",)),
                entry("neutral", [0xFFFFFFFFFFFFFFFF]),
            ]
        )
        annotations = annotate_clusters({0: np.uint64(0)}, KYMGallery(site))
        assert annotations[0].is_racist
        assert not annotations[0].is_politics

    def test_multiple_clusters(self):
        site = KYMSite([entry("a", [0]), entry("b", [0xFFFFFFFFFFFFFFFF])])
        annotations = annotate_clusters(
            {0: np.uint64(0), 1: np.uint64(0xFFFFFFFFFFFFFFFF), 2: np.uint64(0x00000000FFFF0000)},
            KYMGallery(site),
        )
        assert set(annotations) == {0, 1}

    def test_empty_site(self):
        assert annotate_clusters({0: np.uint64(0)}, KYMGallery(KYMSite([]))) == {}

    def test_match_statistics(self):
        site = KYMSite([entry("a", [0, 1, 0xFFFFFFFF0000000F])])
        annotations = annotate_clusters({0: np.uint64(0)}, KYMGallery(site))
        match = annotations[0].matches[0]
        assert match.n_matches == 2
        assert match.gallery_size == 3
        assert match.proportion == pytest.approx(2 / 3)
        assert match.mean_distance == pytest.approx(0.5)
