"""Variant pools: the images through which a meme is posted.

A meme does not propagate as one image: it branches into sub-variants
(paper Section 2.1 / Fig. 1).  A :class:`VariantPool` models this as a
two-level structure: *groups* (sub-memes — the template itself plus heavy
re-workings of it, each destined to become its own DBSCAN cluster) each
containing several *light variants* (crops/captions/noise within the
clustering threshold of the group base).  Posts sample pool entries with
Zipf-like popularity, so image reuse (duplicate pHashes) is heavy-tailed
as in the real crawl.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.phash import phash
from repro.images.raster import Image
from repro.images.templates import MemeTemplate
from repro.images.transforms import VariantSpec, random_variant

__all__ = ["VariantPool", "SampledVariant"]


class SampledVariant:
    """One draw from a pool: the image identity and its pHash."""

    __slots__ = ("image_id", "phash", "group")

    def __init__(self, image_id: str, value: np.uint64, group: int) -> None:
        self.image_id = image_id
        self.phash = value
        self.group = group


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks**-exponent
    return p / p.sum()


class VariantPool:
    """Lazy two-level pool of variants of one meme template.

    Parameters
    ----------
    template:
        The meme's base image.
    rng:
        Renders and sampling randomness (dedicated to this pool).
    n_groups:
        Number of sub-variant groups; group 0's base is the template
        itself, later groups use heavy transforms of it.
    variants_per_group:
        Light variants per group (each stays perceptually close to its
        group base, so groups map to clusters).
    image_size:
        Render resolution.
    group_zipf_exponent:
        Popularity skew across sub-variant groups (strong: a meme's main
        form dominates).
    variant_zipf_exponent:
        Popularity skew across variants within a group.  Kept mild so a
        group's posts spread over many distinct images — the property
        that makes tight DBSCAN thresholds shatter clusters into
        sub-``min_samples`` noise (the paper's Table 8 behaviour).
    """

    def __init__(
        self,
        template: MemeTemplate,
        rng: np.random.Generator,
        *,
        n_groups: int = 2,
        variants_per_group: int = 18,
        image_size: int = 64,
        group_zipf_exponent: float = 1.1,
        variant_zipf_exponent: float = 0.7,
    ) -> None:
        if n_groups < 1 or variants_per_group < 1:
            raise ValueError("pool dimensions must be >= 1")
        self.template = template
        self.image_size = image_size
        self.n_groups = n_groups
        self.variants_per_group = variants_per_group
        self._rng = rng
        self._group_bases: dict[int, Image] = {}
        self._hash_cache: dict[tuple[int, int], np.uint64] = {}
        self._group_probabilities = _zipf_probabilities(
            n_groups, group_zipf_exponent
        )
        self._variant_probabilities = _zipf_probabilities(
            variants_per_group, variant_zipf_exponent
        )

    def _group_base(self, group: int) -> Image:
        base = self._group_bases.get(group)
        if base is None:
            rendered = self.template.render(self.image_size)
            if group == 0:
                base = rendered
            else:
                base = random_variant(rendered, self._rng, VariantSpec.heavy())
            self._group_bases[group] = base
        return base

    def hash_of(self, group: int, variant: int) -> np.uint64:
        """pHash of the given pool slot, rendering on first use."""
        if not 0 <= group < self.n_groups:
            raise ValueError("group out of range")
        if not 0 <= variant < self.variants_per_group:
            raise ValueError("variant out of range")
        key = (group, variant)
        value = self._hash_cache.get(key)
        if value is None:
            base = self._group_base(group)
            if variant == 0:
                image = base
            else:
                image = random_variant(base, self._rng, VariantSpec.light())
            value = phash(image)
            self._hash_cache[key] = value
        return value

    def sample(self, rng: np.random.Generator) -> SampledVariant:
        """Draw a variant with Zipf-skewed popularity."""
        group = int(rng.choice(self.n_groups, p=self._group_probabilities))
        variant = int(rng.choice(self.variants_per_group, p=self._variant_probabilities))
        return SampledVariant(
            image_id=f"{self.template.name}/g{group}/v{variant}",
            value=self.hash_of(group, variant),
            group=group,
        )
