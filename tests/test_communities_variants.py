"""Tests for variant pools."""

import numpy as np
import pytest

from repro.communities.variants import VariantPool
from repro.images.templates import TemplateLibrary
from repro.utils.bitops import hamming_distance
from repro.utils.rng import derive_rng


@pytest.fixture()
def template():
    return TemplateLibrary.build(derive_rng(51, "t"), {"x": 1}).templates[0]


class TestVariantPool:
    def test_validation(self, template):
        with pytest.raises(ValueError):
            VariantPool(template, derive_rng(1, "p"), n_groups=0)

    def test_hash_caching_deterministic(self, template):
        pool = VariantPool(template, derive_rng(1, "p"), n_groups=2)
        first = pool.hash_of(1, 3)
        again = pool.hash_of(1, 3)
        assert int(first) == int(again)

    def test_slot_bounds(self, template):
        pool = VariantPool(template, derive_rng(1, "p"), n_groups=2,
                           variants_per_group=4)
        with pytest.raises(ValueError):
            pool.hash_of(2, 0)
        with pytest.raises(ValueError):
            pool.hash_of(0, 4)

    def test_group_zero_base_is_template(self, template):
        pool = VariantPool(template, derive_rng(1, "p"))
        from repro.hashing import phash

        assert int(pool.hash_of(0, 0)) == int(phash(template.render(64)))

    def test_variants_cluster_around_group_base(self, template):
        pool = VariantPool(template, derive_rng(2, "p"), n_groups=1,
                           variants_per_group=10)
        base = pool.hash_of(0, 0)
        distances = [
            hamming_distance(base, pool.hash_of(0, v)) for v in range(1, 10)
        ]
        assert np.median(distances) <= 10

    def test_sampling_is_zipf_skewed(self, template):
        pool = VariantPool(template, derive_rng(3, "p"), n_groups=3,
                           variants_per_group=6)
        rng = derive_rng(4, "draws")
        draws = [pool.sample(rng) for _ in range(500)]
        group_counts = np.bincount([d.group for d in draws], minlength=3)
        assert group_counts[0] > group_counts[1] > group_counts[2] * 0.8

    def test_image_ids_stable_per_slot(self, template):
        pool = VariantPool(template, derive_rng(5, "p"))
        rng = derive_rng(6, "draws")
        seen = {}
        for _ in range(200):
            draw = pool.sample(rng)
            if draw.image_id in seen:
                assert int(seen[draw.image_id]) == int(draw.phash)
            seen[draw.image_id] = draw.phash
