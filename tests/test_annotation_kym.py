"""Tests for the synthetic KYM site generator."""

import numpy as np
import pytest

from repro.annotation.catalog import DEFAULT_CATALOG
from repro.annotation.kym import (
    ORIGIN_DISTRIBUTION,
    KYMSite,
    SyntheticKYMConfig,
    library_for_catalog,
    random_one_off_image,
)
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def site():
    rng = derive_rng(31, "kym")
    library = library_for_catalog(DEFAULT_CATALOG, derive_rng(31, "lib"))
    return KYMSite.synthesize(DEFAULT_CATALOG, library, rng)


class TestLibraryForCatalog:
    def test_one_template_per_entry(self):
        library = library_for_catalog(DEFAULT_CATALOG, derive_rng(1, "lib"))
        assert len(library) == len(DEFAULT_CATALOG)
        assert library["pepe-the-frog"].family == "frog"


class TestSynthesize:
    def test_every_entry_present(self, site):
        assert len(site) == len(DEFAULT_CATALOG)
        assert site["smug-frog"].name == "smug-frog"

    def test_entry_metadata_copied(self, site):
        merchant = site["happy-merchant"]
        assert merchant.is_racist
        assert merchant.category == "memes"
        trump = site["donald-trump"]
        assert "donald-trump" in trump.people

    def test_gallery_sizes_in_bounds(self, site):
        config = SyntheticKYMConfig()
        sizes = site.images_per_entry()
        assert sizes.min() >= config.gallery_min
        assert sizes.max() <= config.gallery_max

    def test_origins_from_known_platforms(self, site):
        for origin in site.origin_counts():
            assert origin in ORIGIN_DISTRIBUTION

    def test_galleries_contain_screenshots(self, site):
        n_screenshots = sum(
            1 for entry in site for image in entry.gallery if image.is_screenshot
        )
        total = sum(len(entry.gallery) for entry in site)
        assert 0.03 < n_screenshots / total < 0.25

    def test_most_images_from_own_template(self, site):
        own = 0
        other = 0
        for entry in site:
            for image in entry.gallery:
                if image.template_name == entry.name:
                    own += 1
                elif image.template_name is not None:
                    other += 1
        assert own > other  # sibling contamination is the minority

    def test_keep_images_config(self):
        config = SyntheticKYMConfig(keep_images=True, gallery_max=10)
        catalog = DEFAULT_CATALOG[:3]
        library = library_for_catalog(DEFAULT_CATALOG, derive_rng(2, "lib"))
        site = KYMSite.synthesize(catalog, library, derive_rng(2, "kym"), config)
        assert all(
            image.image is not None for entry in site for image in entry.gallery
        )

    def test_duplicate_entries_rejected(self, site):
        with pytest.raises(ValueError):
            KYMSite(site.entries + [site.entries[0]])

    def test_category_counts_sum(self, site):
        assert sum(site.category_counts().values()) == len(site)


class TestRandomOneOff:
    def test_shape_and_variety(self):
        rng = derive_rng(3, "junk")
        a = random_one_off_image(rng, size=32)
        b = random_one_off_image(rng, size=32)
        assert a.shape == (32, 32)
        assert not np.array_equal(a, b)
