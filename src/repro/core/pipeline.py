"""Orchestration of the paper's processing pipeline (Fig. 2, Steps 1-7).

The pipeline consumes a :class:`~repro.communities.world.SyntheticWorld`
(or any object exposing the same ``posts``/``kym_site`` interface):

1. **pHash extraction** happened at world generation (every post carries
   its image's pHash, as the paper computes hashes on ingest and discards
   the raw images).
2-3. **Pairwise distances + DBSCAN** over each fringe community's image
   multiset.
4. **Screenshot removal** from KYM galleries (oracle flags or the CNN).
5. **Cluster annotation** of medoids against the filtered galleries.
6. **Association** of every community's posts with annotated medoids.
7. The analysis layer (:mod:`repro.analysis`) consumes the result.
"""

from __future__ import annotations

import numpy as np

from repro.annotation.kym import KYMSite
from repro.annotation.screenshots import ScreenshotClassifier, build_screenshot_dataset
from repro.clustering.dbscan import dbscan_from_neighbors
from repro.clustering.medoid import medoids_by_cluster
from repro.communities.models import Post
from repro.core.config import PipelineConfig
from repro.core.results import CommunityClustering, PipelineResult
from repro.hashing.index import NeighborGraph
from repro.hashing.pairwise import radius_neighbors
from repro.utils.rng import derive_rng

__all__ = [
    "run_pipeline",
    "cluster_community",
    "clustering_from_neighbors",
    "filter_kym_screenshots",
]


def cluster_community(
    community: str,
    posts: list[Post],
    config: PipelineConfig,
    *,
    parallel=None,
) -> CommunityClustering:
    """Steps 2-3 for one fringe community's image multiset.

    ``parallel`` (a :class:`repro.utils.parallel.ParallelConfig`) shards
    the radius-neighbourhood computation; labels are identical for any
    worker count.
    """
    image_hashes = np.array(
        [post.phash for post in posts if post.community == community],
        dtype=np.uint64,
    )
    unique, counts = np.unique(image_hashes, return_counts=True)
    neighbors = radius_neighbors(
        unique,
        config.clustering_eps,
        method=config.neighbor_method,
        parallel=parallel,
    )
    return clustering_from_neighbors(community, unique, counts, neighbors, config)


def clustering_from_neighbors(
    community: str,
    unique: np.ndarray,
    counts: np.ndarray,
    neighbors: NeighborGraph,
    config: PipelineConfig,
) -> CommunityClustering:
    """Step 3's DBSCAN and the cluster medoids, from Step 2's graph.

    The one tail of every clustering path (cold, cached and streamed),
    so a path that reaches the same graph yields the same arrays.
    """
    result = dbscan_from_neighbors(
        neighbors, min_samples=config.clustering_min_samples, counts=counts
    )
    medoid_positions = medoids_by_cluster(unique, result.labels, counts)
    medoids = {
        cluster_id: np.uint64(unique[position])
        for cluster_id, position in medoid_positions.items()
    }
    return CommunityClustering(
        community=community,
        unique_hashes=unique,
        counts=counts,
        result=result,
        medoids=medoids,
    )


def filter_kym_screenshots(
    site: KYMSite,
    config: PipelineConfig,
    *,
    seed: int = 0,
    library=None,
):
    """Step 4: decide which gallery images to exclude as screenshots.

    Returns ``(exclude_oracle, report)`` where ``exclude_oracle`` tells
    the annotator whether to drop ground-truth-flagged screenshots, and
    ``report`` carries classifier metrics when the CNN mode ran.

    In ``"classifier"`` mode the CNN is trained on synthetic
    screenshot/organic data and *applied to the galleries' retained
    rasters*; its decisions overwrite the oracle flags.
    """
    if config.screenshot_filter == "none":
        return False, None
    if config.screenshot_filter == "oracle":
        return True, None
    if library is None:
        raise ValueError("classifier mode needs the template library")
    rng = derive_rng(seed, "screenshot-classifier")
    x, y = build_screenshot_dataset(library, rng)
    classifier = ScreenshotClassifier(rng)
    x_train, y_train, x_test, y_test = classifier.train_eval_split(x, y, rng)
    classifier.fit(x_train, y_train)
    report = classifier.evaluate(x_test, y_test)
    # Re-flag gallery images that kept their rasters.
    for entry in site:
        for index, image in enumerate(entry.gallery):
            if image.image is None:
                continue
            decided = classifier.is_screenshot(image.image)
            if decided != image.is_screenshot:
                entry.gallery[index] = type(image)(
                    phash=image.phash,
                    is_screenshot=decided,
                    template_name=image.template_name,
                    image=image.image,
                )
    return True, report


def run_pipeline(
    world,
    config: PipelineConfig | None = None,
    *,
    options=None,
) -> PipelineResult:
    """Run Steps 2-6 over a generated world.

    Since the staged-runner refactor this is a thin compatibility
    wrapper over :class:`repro.core.runner.PipelineRunner`; pass
    ``options`` (a :class:`repro.core.runner.RunnerOptions`) to turn on
    the content cache (which is also the restart path after a crash),
    retries, parallel fan-out, or fault injection.

    Parameters
    ----------
    world:
        A :class:`~repro.communities.world.SyntheticWorld` (or compatible
        object with ``posts``, ``kym_site``, ``library`` and
        ``catalog_entry``).
    config:
        Pipeline constants; defaults to the paper's values.
    options:
        Runner execution options; defaults to run-everything-in-process
        with no cache (the historical behaviour).
    """
    from repro.core.runner import PipelineRunner

    return PipelineRunner(world, config, options).run()
