"""Know Your Meme: entry model and synthetic annotation-site generator.

The paper crawled 15.6K KYM entries and 707K gallery images (Section 3.2).
The synthetic generator reproduces the marginals the paper characterises
(Fig. 4): the category mix (57% memes, 30% subcultures, ...), the heavy-
tailed images-per-entry distribution (median 9, mean 45), the origin mix
(28% unknown, 21% YouTube, ...) — and the two contamination phenomena the
pipeline must cope with: screenshot images in galleries (removed by Step 4)
and cross-meme image overlap (which produces multi-entry cluster
annotations, Fig. 5a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.annotation.catalog import DEFAULT_CATALOG, CatalogEntry
from repro.hashing.phash import phash
from repro.images.raster import DEFAULT_SIZE, Image, blank
from repro.images.screenshots import render_screenshot
from repro.images.templates import MemeTemplate, TemplateLibrary
from repro.images.transforms import VariantSpec, random_variant
from repro.images import draw

__all__ = [
    "GalleryImage",
    "KYMEntry",
    "KYMSite",
    "SyntheticKYMConfig",
    "ORIGIN_DISTRIBUTION",
    "library_for_catalog",
    "random_one_off_image",
]

# Paper Fig. 4(c): platform of origin for KYM entries.
ORIGIN_DISTRIBUTION: dict[str, float] = {
    "unknown": 0.28,
    "youtube": 0.21,
    "4chan": 0.12,
    "twitter": 0.11,
    "tumblr": 0.08,
    "reddit": 0.07,
    "facebook": 0.05,
    "niconico": 0.03,
    "ytmnd": 0.03,
    "instagram": 0.02,
}


@dataclass(frozen=True)
class GalleryImage:
    """One image of a KYM entry gallery, with ground truth attached.

    ``template_name`` records which meme template produced the image
    (``None`` for screenshots and one-off junk) — ground truth the real
    crawl lacked, used here to *evaluate* the pipeline, never to run it.
    """

    phash: np.uint64
    is_screenshot: bool = False
    template_name: str | None = None
    image: Image | None = field(default=None, repr=False, compare=False)


@dataclass
class KYMEntry:
    """A Know Your Meme entry: identity, metadata, and image gallery."""

    name: str
    category: str
    tags: frozenset[str]
    people: frozenset[str]
    cultures: frozenset[str]
    origin: str
    year: int
    gallery: list[GalleryImage]
    template_names: tuple[str, ...] = ()

    @property
    def is_racist(self) -> bool:
        """Tagged with one of the paper's racism tags."""
        from repro.annotation.catalog import RACISM_TAGS

        return bool(self.tags & RACISM_TAGS)

    @property
    def is_politics(self) -> bool:
        """Tagged with one of the paper's politics tags."""
        from repro.annotation.catalog import POLITICS_TAGS

        return bool(self.tags & POLITICS_TAGS)


@dataclass(frozen=True)
class SyntheticKYMConfig:
    """Knobs for :meth:`KYMSite.synthesize`.

    Defaults mirror the paper's KYM characterisation: galleries are
    log-normal with median ~9 images; a small fraction of each gallery is
    screenshots (the Step 4 target) or unrelated junk; sibling
    contamination makes related memes share images, producing the
    multi-annotation behaviour of Fig. 5(a).
    """

    image_size: int = DEFAULT_SIZE
    gallery_log_mean: float = 2.2   # exp(2.2) ~ 9 images median
    gallery_log_sigma: float = 0.9
    gallery_min: int = 1
    gallery_max: int = 120
    screenshot_fraction: float = 0.10
    junk_fraction: float = 0.04
    sibling_fraction: float = 0.12
    heavy_variant_fraction: float = 0.25
    keep_images: bool = False


def library_for_catalog(
    catalog: tuple[CatalogEntry, ...],
    rng: np.random.Generator,
) -> TemplateLibrary:
    """Build a template library whose template names are the catalog names."""
    names_by_family: dict[str, list[str]] = {}
    for entry in catalog:
        names_by_family.setdefault(entry.family, []).append(entry.name)
    return TemplateLibrary.build_named(rng, names_by_family)


def random_one_off_image(rng: np.random.Generator, size: int = DEFAULT_SIZE) -> Image:
    """A junk image unrelated to any meme (random photo, game capture, ...).

    These populate the 63-69% DBSCAN noise the paper observes (Table 2).
    """
    image = blank(size)
    if rng.random() < 0.75:
        start, stop = sorted(rng.uniform(0.0, 1.0, size=2))
        draw.fill_gradient(
            image, float(start), float(stop), float(rng.uniform(0, np.pi))
        )
    else:
        cells = int(rng.integers(2, 9))
        low, high = sorted(rng.uniform(0.0, 1.0, size=2))
        draw.fill_checkerboard(image, cells, float(low), float(high))
    for _ in range(int(rng.integers(3, 12))):
        kind = rng.choice(["rect", "ellipse", "line", "triangle"])
        value = float(rng.uniform(0, 1))
        if kind == "rect":
            y, x = rng.uniform(0, 0.8, size=2)
            h, w = rng.uniform(0.05, 0.5, size=2)
            draw.draw_rect(image, float(y), float(x), float(h), float(w), value)
        elif kind == "ellipse":
            cy, cx = rng.uniform(0.1, 0.9, size=2)
            ry, rx = rng.uniform(0.04, 0.3, size=2)
            draw.draw_ellipse(image, float(cy), float(cx), float(ry), float(rx), value)
        elif kind == "line":
            y0, x0, y1, x1 = rng.uniform(0.0, 1.0, size=4)
            draw.draw_line(
                image, float(y0), float(x0), float(y1), float(x1), value,
                thickness=float(rng.uniform(0.01, 0.06)),
            )
        else:
            pts = rng.uniform(0.05, 0.95, size=6)
            draw.draw_polygon(
                image, np.array(pts, dtype=float).reshape(3, 2), value
            )
    draw.draw_texture(
        image, rng, scale=int(rng.integers(3, 9)),
        strength=float(rng.uniform(0.05, 0.25)),
    )
    return image


class KYMSite:
    """A collection of :class:`KYMEntry` — the annotation data source."""

    def __init__(self, entries: list[KYMEntry]) -> None:
        self.entries = list(entries)
        self._by_name = {e.name: e for e in self.entries}
        if len(self._by_name) != len(self.entries):
            raise ValueError("duplicate KYM entry names")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, name: str) -> KYMEntry:
        return self._by_name[name]

    def category_counts(self) -> dict[str, int]:
        """Entries per KYM category (Fig. 4a)."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.category] = counts.get(entry.category, 0) + 1
        return counts

    def images_per_entry(self) -> np.ndarray:
        """Gallery sizes, one per entry (Fig. 4b)."""
        return np.array([len(e.gallery) for e in self.entries], dtype=np.int64)

    def origin_counts(self) -> dict[str, int]:
        """Entries per origin platform (Fig. 4c)."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.origin] = counts.get(entry.origin, 0) + 1
        return counts

    @classmethod
    def synthesize(
        cls,
        catalog: tuple[CatalogEntry, ...],
        library: TemplateLibrary,
        rng: np.random.Generator,
        config: SyntheticKYMConfig | None = None,
    ) -> "KYMSite":
        """Generate a synthetic KYM site for ``catalog`` over ``library``.

        Every catalog entry becomes a KYM entry whose gallery mixes:
        variants of its own template, variants of same-family sibling
        templates (``sibling_fraction``), screenshots
        (``screenshot_fraction``) and junk (``junk_fraction``).
        """
        config = config or SyntheticKYMConfig()
        origins = list(ORIGIN_DISTRIBUTION)
        origin_p = np.array(list(ORIGIN_DISTRIBUTION.values()))
        origin_p = origin_p / origin_p.sum()
        families = library.families()
        entries: list[KYMEntry] = []
        for item in catalog:
            template = library[item.name]
            siblings = [t for t in families[item.family] if t.name != item.name]
            # Entry metadata is drawn before the gallery so that the
            # (variable) number of rng draws a gallery consumes cannot
            # perturb the origin/year marginals.
            origin = str(rng.choice(origins, p=origin_p))
            year = int(rng.integers(2008, 2017))
            n_images = int(
                np.clip(
                    round(rng.lognormal(config.gallery_log_mean, config.gallery_log_sigma)),
                    config.gallery_min,
                    config.gallery_max,
                )
            )
            gallery = [
                _gallery_image(template, siblings, rng, config)
                for _ in range(n_images)
            ]
            entries.append(
                KYMEntry(
                    name=item.name,
                    category=item.category,
                    tags=item.tags,
                    people=item.people,
                    cultures=item.cultures,
                    origin=origin,
                    year=year,
                    gallery=gallery,
                    template_names=(item.name,),
                )
            )
        return cls(entries)


def _gallery_image(
    template: MemeTemplate,
    siblings: list[MemeTemplate],
    rng: np.random.Generator,
    config: SyntheticKYMConfig,
) -> GalleryImage:
    """Draw one gallery image according to the contamination mixture."""
    roll = rng.random()
    if roll < config.screenshot_fraction:
        image = render_screenshot(rng, size=config.image_size)
        return GalleryImage(
            phash=phash(image),
            is_screenshot=True,
            template_name=None,
            image=image if config.keep_images else None,
        )
    if roll < config.screenshot_fraction + config.junk_fraction:
        image = random_one_off_image(rng, size=config.image_size)
        return GalleryImage(
            phash=phash(image),
            template_name=None,
            image=image if config.keep_images else None,
        )
    source = template
    if siblings and rng.random() < config.sibling_fraction:
        source = siblings[int(rng.integers(len(siblings)))]
    spec = (
        VariantSpec.heavy()
        if rng.random() < config.heavy_variant_fraction
        else VariantSpec.light()
    )
    image = random_variant(source.render(config.image_size), rng, spec)
    return GalleryImage(
        phash=phash(image),
        template_name=source.name,
        image=image if config.keep_images else None,
    )
