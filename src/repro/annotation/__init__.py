"""Meme annotation: Know Your Meme modelling and cluster labelling.

* :mod:`repro.annotation.catalog` — a paper-grounded catalog of meme
  entities (names, categories, racist/politics tags, people links) used to
  seed the synthetic world.
* :mod:`repro.annotation.kym` — the KYM entry model and the synthetic
  annotation-site generator (galleries, origins, screenshot contamination).
* :mod:`repro.annotation.screenshots` — the screenshot classifier
  (paper Step 4 / Appendix C), built on :mod:`repro.nn`.
* :mod:`repro.annotation.matcher` — cluster annotation (Step 5).
* :mod:`repro.annotation.association` — image-to-meme association (Step 6).
"""

from repro.annotation.association import AssociationResult, associate_hashes
from repro.annotation.catalog import (
    DEFAULT_CATALOG,
    CatalogEntry,
)
from repro.annotation.kym import GalleryImage, KYMEntry, KYMSite, SyntheticKYMConfig
from repro.annotation.matcher import ClusterAnnotation, KYMGallery, annotate_clusters
from repro.annotation.screenshots import (
    ScreenshotClassifier,
    build_screenshot_dataset,
)

__all__ = [
    "CatalogEntry",
    "DEFAULT_CATALOG",
    "KYMEntry",
    "KYMSite",
    "GalleryImage",
    "SyntheticKYMConfig",
    "ScreenshotClassifier",
    "build_screenshot_dataset",
    "ClusterAnnotation",
    "KYMGallery",
    "annotate_clusters",
    "AssociationResult",
    "associate_hashes",
]
