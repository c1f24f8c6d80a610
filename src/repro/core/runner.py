"""Staged, fault-tolerant execution engine for the Step 1-7 pipeline.

The paper's production run took weeks over 160M images; at that scale a
single monolithic function is operationally unacceptable — one bad
cluster or one classifier blow-up loses everything.  The runner
decomposes :func:`repro.core.pipeline.run_pipeline` into four named
stages with explicit boundaries::

    cluster ──> screenshot-filter ──> annotate ──> associate

and wraps each boundary with the fault-tolerance machinery:

* **Retry** — transient failures (:class:`repro.utils.retry.
  TransientError`, ``OSError``) are retried with exponential backoff.
* **Graceful degradation** — the screenshot filter walks the ladder
  ``classifier`` → ``oracle`` → ``none`` on permanent failure instead
  of aborting Step 4.
* **Quarantine** — a community whose clustering (or annotation) fails
  permanently is isolated with an empty result while the other fringe
  communities proceed.
* **Observability** — every stage appends a
  :class:`~repro.core.results.StageReport` (timings, attempts,
  fallbacks, quarantined items) to the returned
  :class:`~repro.core.results.PipelineResult`.
* **Content-addressed memoization** — with a
  :class:`~repro.core.cache.ContentCache` (``cache_dir``/``cache`` on
  :class:`RunnerOptions`), every stage consults the cache before
  computing: unchanged inputs hit outright, and the clustering and
  association stages run *delta* work when the input grew — reusing
  yesterday's radius neighbourhoods
  (:func:`repro.hashing.pairwise.merge_radius_neighbors`) and
  association prefix instead of recomputing the world.  All cached and
  delta outputs are bit-identical to a cold run (pinned in tests);
  per-stage hit/miss/delta statistics land on the stage report.
  Entries are keyed by input *content*, so they survive across runs
  and worker counts.  The cache is also the restart path: a run that
  crashed is simply re-run warm on the same ``cache_dir``, and every
  stage that finished before the crash is a hit.  Degraded outcomes
  (quarantined items, a lower screenshot rung) are never stored, so a
  re-run after the fault clears recomputes them.

Fault injection for tests goes through :mod:`repro.core.faults`: the
runner calls ``faults.fire(site)`` at every boundary it crosses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.communities.models import FRINGE_COMMUNITIES
from repro.annotation.association import (
    UNASSIGNED,
    AssociationResult,
    associate_hashes,
)
from repro.annotation.matcher import annotate_clusters
from repro.clustering.dbscan import dbscan
from repro.core.cache import CacheStats, ContentCache, fingerprint
from repro.core.config import PipelineConfig, RunnerPolicy
from repro.core.faults import FaultInjector
from repro.hashing.pairwise import merge_radius_neighbors, radius_neighbors
from repro.core.results import (
    ClusterKey,
    CommunityClustering,
    OccurrenceTable,
    PipelineResult,
    StageReport,
)
from repro.utils.parallel import (
    Executor,
    ParallelConfig,
    array_splitter,
    resolve_parallel,
)
from repro.utils.retry import RetryPolicy, retry_call

__all__ = [
    "PipelineRunner",
    "RunnerOptions",
    "StageFailure",
    "STAGES",
    "build_occurrence_table",
]

STAGES = ("cluster", "screenshot-filter", "annotate", "associate")


def build_occurrence_table(
    posts: list,
    annotations: dict[ClusterKey, object],
    cluster_keys: list[ClusterKey],
    association: AssociationResult,
) -> OccurrenceTable:
    """Assemble Step 6's occurrence table from per-post association.

    Shared by the batch associate stage and the streaming ingester
    (:mod:`repro.stream`): given the posts, the annotation catalogue,
    and the per-post association arrays, produce the flat matched-post
    table.  Pure and deterministic — the bit-identity between a
    streamed state and a cold batch run reduces to their inputs here
    being equal.
    """
    matched = association.cluster_ids >= 0
    matched_posts = [post for post, hit in zip(posts, matched) if hit]
    cluster_indices = association.cluster_ids[matched]
    entry_names = [
        annotations[cluster_keys[index]].representative
        for index in cluster_indices
    ]
    is_racist = np.array(
        [
            annotations[cluster_keys[index]].is_racist
            for index in cluster_indices
        ],
        dtype=bool,
    )
    is_politics = np.array(
        [
            annotations[cluster_keys[index]].is_politics
            for index in cluster_indices
        ],
        dtype=bool,
    )
    return OccurrenceTable(
        posts=matched_posts,
        cluster_indices=np.asarray(cluster_indices, dtype=np.int64),
        entry_names=entry_names,
        is_racist=is_racist,
        is_politics=is_politics,
    )


def _associate_community_shard(
    hashes: np.ndarray, medoid_by_global: dict[int, int], theta: int
) -> AssociationResult:
    """Associate one community's post hashes; module-level so process
    workers can receive the pickled shard.  The inner lookup stays
    serial — the fan-out already happened at the community level."""
    return associate_hashes(
        hashes, medoid_by_global, theta=theta, parallel=ParallelConfig()
    )


def _merge_association_results(
    parts: list[AssociationResult],
) -> AssociationResult:
    """Reassemble a bisected community shard's association outputs."""
    return AssociationResult(
        cluster_ids=np.concatenate([part.cluster_ids for part in parts]),
        distances=np.concatenate([part.distances for part in parts]),
    )


class StageFailure(RuntimeError):
    """A stage failed permanently with no fallback left."""

    def __init__(self, stage: str, cause: BaseException) -> None:
        super().__init__(f"stage {stage!r} failed permanently: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunnerOptions:
    """Execution options of one :class:`PipelineRunner` invocation.

    Attributes
    ----------
    policy:
        Retry/degradation/quarantine policy.
    faults:
        Optional fault-injection plan (tests only).
    sleep:
        Injectable backoff sleeper; defaults to real ``time.sleep``.
    seed:
        Seed for seed-dependent stages (the screenshot classifier).
        ``None`` takes the world's own ``config.seed``, falling back
        to 0 — this is what threads the world seed into Step 4.
    parallel:
        Executor config for the hot paths (clustering neighbourhoods,
        per-community association).  ``None`` falls back to the
        ``REPRO_WORKERS``/``REPRO_PARALLEL_BACKEND`` environment, then
        to serial.  Results are bit-identical for any worker count, so
        cache entries written under different worker counts are
        interchangeable (no cache key includes this).
    cache_dir:
        Directory of the content-addressed cache
        (:class:`repro.core.cache.ContentCache`); ``None`` disables
        memoization unless ``cache`` is given.  Warm re-runs hit per
        stage; runs over a grown input do delta work only.  Re-running
        after a crash on the same directory is the restart path.
    cache:
        An already-constructed cache instance (shared with e.g. the
        serving layer); wins over ``cache_dir``.
    """

    policy: RunnerPolicy = field(default_factory=RunnerPolicy)
    faults: FaultInjector | None = None
    sleep: Callable[[float], None] | None = None
    seed: int | None = None
    parallel: ParallelConfig | None = None
    cache_dir: str | Path | None = None
    cache: ContentCache | None = None


class PipelineRunner:
    """Run the pipeline stage by stage with fault tolerance.

    Examples
    --------
    >>> # runner = PipelineRunner(world, PipelineConfig(),
    >>> #                         RunnerOptions(cache_dir="cache"))
    >>> # result = runner.run()
    >>> # [r.summary() for r in result.stage_reports]
    """

    def __init__(
        self,
        world,
        config: PipelineConfig | None = None,
        options: RunnerOptions | None = None,
    ) -> None:
        self.world = world
        self.config = config or PipelineConfig()
        self.options = options or RunnerOptions()
        self.parallel = resolve_parallel(self.options.parallel)
        if self.options.faults is not None and self.parallel.chaos is None:
            # Thread the fault plan into every supervised fan-out the
            # config reaches (clustering neighbourhoods, association
            # shards) so parallel:shard / parallel:worker faults fire.
            self.parallel = replace(
                self.parallel, chaos=self.options.faults.parallel_directive
            )
        self.cache = self.options.cache
        if self.cache is None and self.options.cache_dir is not None:
            self.cache = ContentCache(self.options.cache_dir)
        self.reports: list[StageReport] = []

    # ------------------------------------------------------------------
    # Identity and plumbing
    # ------------------------------------------------------------------

    def _seed(self) -> int:
        if self.options.seed is not None:
            return int(self.options.seed)
        world_config = getattr(self.world, "config", None)
        return int(getattr(world_config, "seed", 0) or 0)

    def _retry_policy(self) -> RetryPolicy:
        policy = self.options.policy
        return RetryPolicy(
            max_retries=policy.max_retries,
            base_delay=policy.retry_base_delay,
            backoff=policy.retry_backoff,
        )

    def _fire(self, site: str) -> None:
        if self.options.faults is not None:
            self.options.faults.fire(site)

    # ------------------------------------------------------------------
    # The stage wrapper
    # ------------------------------------------------------------------

    def _run_stage(
        self, stage: str, compute: Callable[[StageReport], dict]
    ) -> dict:
        """Compute ``stage`` and append its report.

        ``compute(report)`` returns the stage payload and may mutate
        ``report`` (attempts, fallbacks, quarantined).  With a cache,
        the report also carries the stage's slice of the cache stats.
        """
        report = StageReport(name=stage)
        start = time.perf_counter()
        self._fire(stage)
        cache_base = self.cache.stats.copy() if self.cache is not None else None
        payload = compute(report)
        if cache_base is not None:
            stage_stats = self.cache.stats.since(cache_base)
            report.cache_stats = stage_stats
            # "cached" = nothing was freshly computed: every lookup hit
            # and no delta work ran (":added" labels mark fresh inputs).
            report.cached = (
                stage_stats.hits > 0
                and stage_stats.misses == 0
                and not any(
                    label.endswith(":added") for label in stage_stats.deltas
                )
            )
        report.duration_s = time.perf_counter() - start
        self.reports.append(report)
        return payload

    def _run_item(
        self,
        report: StageReport,
        site: str,
        compute: Callable[[], object],
    ) -> object:
        """One retried work item inside a stage; raises on exhaustion."""

        def attempt() -> object:
            report.attempts += 1
            self._fire(site)
            return compute()

        outcome = retry_call(
            attempt, self._retry_policy(), sleep=self.options.sleep
        )
        if outcome.errors:
            report.notes.append(
                f"{site}: succeeded after {outcome.attempts} attempts"
            )
        return outcome.value

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _empty_clustering(self, community: str) -> CommunityClustering:
        unique = np.empty(0, dtype=np.uint64)
        return CommunityClustering(
            community=community,
            unique_hashes=unique,
            counts=np.empty(0, dtype=np.int64),
            result=dbscan(unique, eps=self.config.clustering_eps),
            medoids={},
        )

    def _cluster_community_cached(self, community: str) -> CommunityClustering:
        """Steps 2-3 for one community, through the content cache.

        The cache slot is keyed by the computation's identity
        (community + eps + min_samples + method); its value carries the
        input fingerprint plus the radius neighbourhoods (a
        :class:`repro.hashing.index.NeighborGraph`) — the expensive
        part.  Three outcomes:

        * **full hit** — identical unique hashes and counts: reuse the
          stored neighbourhoods outright;
        * **delta** — the previous unique hashes are a subset of
          today's: index only the added hashes and merge
          (:func:`repro.hashing.pairwise.merge_radius_neighbors`, bit-
          identical to a cold recompute);
        * **miss** — compute cold and store.

        DBSCAN labels and medoids are always re-derived from the
        neighbourhoods (cheap, deterministic), so every path yields the
        exact arrays a cold :func:`repro.core.pipeline.cluster_community`
        call would.
        """
        from repro.core.pipeline import cluster_community, clustering_from_neighbors

        if self.cache is None:
            return cluster_community(
                community, self.world.posts, self.config, parallel=self.parallel
            )
        image_hashes = np.array(
            [
                post.phash
                for post in self.world.posts
                if post.community == community
            ],
            dtype=np.uint64,
        )
        if image_hashes.size == 0:
            return self._empty_clustering(community)
        unique, counts = np.unique(image_hashes, return_counts=True)
        config = self.config
        slot = self.cache.key(
            "cluster-slot",
            community,
            config.clustering_eps,
            config.clustering_min_samples,
            config.neighbor_method,
        )
        input_fp = fingerprint(unique, counts)
        stats = self.cache.stats
        hit, stored = self.cache.get(slot, count=False)
        neighbors = None
        if hit:
            prev_unique = stored["unique"]
            if stored["input_fp"] == input_fp or np.array_equal(
                prev_unique, unique
            ):
                # Neighbourhoods depend only on the unique hashes, so a
                # counts-only change still reuses them fully.
                neighbors = stored["neighbors"]
                stats.hits += 1
                stats.note_delta(f"cluster:{community}:reused", int(unique.size))
            elif (
                0 < prev_unique.size < unique.size
                and np.all(np.isin(prev_unique, unique))
            ):
                added = np.setdiff1d(unique, prev_unique)
                _, neighbors = merge_radius_neighbors(
                    prev_unique,
                    stored["neighbors"],
                    added,
                    config.clustering_eps,
                )
                stats.hits += 1
                stats.note_delta(f"cluster:{community}:added", int(added.size))
                stats.note_delta(
                    f"cluster:{community}:reused", int(prev_unique.size)
                )
            else:
                stats.misses += 1  # shrunk or disjoint input: recompute
        else:
            stats.misses += 1
        if neighbors is None:
            neighbors = radius_neighbors(
                unique,
                config.clustering_eps,
                method=config.neighbor_method,
                parallel=self.parallel,
            )
        if not hit or stored["input_fp"] != input_fp:
            self.cache.put(
                slot,
                {
                    "input_fp": input_fp,
                    "unique": unique,
                    "counts": counts,
                    "neighbors": neighbors,
                },
            )
        return clustering_from_neighbors(community, unique, counts, neighbors, config)

    def _cluster_stage(self, report: StageReport) -> dict:
        """Steps 2-3 per fringe community, with per-community quarantine."""
        clusterings: dict[str, CommunityClustering] = {}
        for community in FRINGE_COMMUNITIES:
            site = f"cluster:{community}"
            try:
                clusterings[community] = self._run_item(
                    report,
                    site,
                    lambda community=community: self._cluster_community_cached(
                        community
                    ),
                )
            except Exception as error:
                if not self.options.policy.quarantine_failures:
                    raise StageFailure("cluster", error) from error
                report.quarantined.append(site)
                report.status = "degraded"
                report.error = f"{type(error).__name__}: {error}"
                clusterings[community] = self._empty_clustering(community)
        return {"clusterings": clusterings}

    def _screenshot_stage(self, report: StageReport) -> dict:
        """Step 4 with the classifier → oracle → none degradation ladder.

        With a cache, the whole stage is memoized on (filter mode, seed,
        gallery content): a hit replays the recorded classifier
        decisions onto the galleries via
        :meth:`_restore_screenshot_stage` instead of retraining the CNN.
        The key is fingerprinted *before* any mutation, so warm runs
        over a regenerated world hit deterministically.  Only clean
        rung-0 outcomes are stored — a degraded ladder walk must not
        mask the original failure on the next run.
        """
        from repro.core.pipeline import filter_kym_screenshots

        cache_key = None
        if self.cache is not None:
            cache_key = self.cache.key(
                "screenshot",
                self.config.screenshot_filter,
                self._seed(),
                self.world.kym_site,
                getattr(self.world, "library", None),
            )
            hit, payload = self.cache.get(cache_key)
            if hit:
                self._restore_screenshot_stage(payload)
                return dict(payload)
        ladder = self.config.screenshot_ladder()
        last_error: BaseException | None = None
        for rung, mode in enumerate(ladder):
            site = f"screenshot-filter:{mode}"
            rung_config = replace(self.config, screenshot_filter=mode)
            try:
                exclude, eval_report = self._run_item(
                    report,
                    site,
                    lambda rung_config=rung_config: filter_kym_screenshots(
                        self.world.kym_site,
                        rung_config,
                        seed=self._seed(),
                        library=getattr(self.world, "library", None),
                    ),
                )
            except Exception as error:
                last_error = error
                report.error = f"{type(error).__name__}: {error}"
                if (
                    rung + 1 >= len(ladder)
                    or not self.options.policy.allow_degraded
                ):
                    raise StageFailure("screenshot-filter", error) from error
                report.fallbacks.append(f"{mode}->{ladder[rung + 1]}")
                continue
            if rung > 0:
                report.status = "degraded"
            payload = {
                "exclude": exclude,
                "report": eval_report,
                "mode": mode,
            }
            if mode == "classifier":
                # The classifier re-flags gallery images in place; record
                # the decided flags so a cache hit can replay them.
                payload["gallery_flags"] = [
                    [bool(image.is_screenshot) for image in entry.gallery]
                    for entry in self.world.kym_site
                ]
            if cache_key is not None and rung == 0:
                self.cache.put(cache_key, dict(payload))
            return payload
        raise StageFailure("screenshot-filter", last_error)  # pragma: no cover

    def _restore_screenshot_stage(self, payload: dict) -> None:
        """Replay cached classifier decisions onto the galleries."""
        flags = payload.get("gallery_flags")
        if flags is None:
            return
        for entry, entry_flags in zip(self.world.kym_site, flags):
            for index, decided in enumerate(entry_flags):
                image = entry.gallery[index]
                if bool(image.is_screenshot) != decided:
                    entry.gallery[index] = type(image)(
                        phash=image.phash,
                        is_screenshot=decided,
                        template_name=image.template_name,
                        image=image.image,
                    )

    def _annotate_stage(
        self,
        report: StageReport,
        clusterings: dict[str, CommunityClustering],
        exclude_screenshots: bool,
    ) -> dict:
        """Step 5 per community, quarantining permanently-failing ones.

        With a cache, the whole stage is memoized on (theta, exclusion
        flag, every community's medoids, gallery content *after* the
        screenshot filter ran) — the exact inputs of
        :func:`repro.annotation.matcher.annotate_clusters`.  Outcomes
        with quarantined communities are not stored.
        """
        cache_key = None
        if self.cache is not None:
            medoid_map = {
                community: {
                    int(cluster_id): int(medoid)
                    for cluster_id, medoid in sorted(
                        clustering.medoids.items()
                    )
                }
                for community, clustering in sorted(clusterings.items())
            }
            cache_key = self.cache.key(
                "annotate",
                self.config.theta,
                bool(exclude_screenshots),
                medoid_map,
                self.world.kym_site,
            )
            hit, payload = self.cache.get(cache_key)
            if hit:
                return dict(payload)
        annotations: dict[ClusterKey, object] = {}
        cluster_keys: list[ClusterKey] = []
        for community, clustering in clusterings.items():
            site = f"annotate:{community}"
            try:
                community_annotations = self._run_item(
                    report,
                    site,
                    lambda clustering=clustering: annotate_clusters(
                        clustering.medoids,
                        self.world.kym_site,
                        theta=self.config.theta,
                        exclude_screenshots=exclude_screenshots,
                    ),
                )
            except Exception as error:
                if not self.options.policy.quarantine_failures:
                    raise StageFailure("annotate", error) from error
                report.quarantined.append(site)
                report.status = "degraded"
                report.error = f"{type(error).__name__}: {error}"
                continue
            for cluster_id, annotation in sorted(community_annotations.items()):
                key = ClusterKey(community, cluster_id)
                annotations[key] = annotation
                cluster_keys.append(key)
        payload = {"annotations": annotations, "cluster_keys": cluster_keys}
        if cache_key is not None and not report.quarantined:
            self.cache.put(cache_key, dict(payload))
        return payload

    def _associate_all(
        self,
        all_hashes: np.ndarray,
        medoid_by_global: dict[int, int],
        report: StageReport | None = None,
        first_post: int = 0,
    ):
        """Step 6's association, sharded per community when parallel.

        ``all_hashes`` are the hashes of the posts
        ``world.posts[first_post:]``, in order (a cache delta passes only
        the appended suffix).

        Each post's match depends only on its own hash, so splitting the
        post set by community and stitching the per-community results
        back into post order is bit-identical to one global call — the
        communities are the natural shards (the paper associates each
        platform's crawl independently too).

        The fan-out runs supervised: a community shard that exhausts the
        rescue ladder quarantines (its posts stay ``UNASSIGNED``, the
        community lands in ``report.quarantined``) rather than sinking
        the stage — unless the supervision policy says
        ``on_poison="fail"``, in which case :class:`PoisonShardError`
        propagates into the stage's own failure handling.
        """
        if self.parallel.is_serial:
            return associate_hashes(
                all_hashes, medoid_by_global, theta=self.config.theta
            )
        posts = self.world.posts[first_post : first_post + all_hashes.size]
        groups: dict[str, list[int]] = {}
        for position, post in enumerate(posts):
            groups.setdefault(post.community, []).append(position)
        ordered = [np.asarray(idx, dtype=np.int64) for idx in groups.values()]
        sup = Executor(self.parallel).supervised_starmap(
            _associate_community_shard,
            [
                (all_hashes[idx], medoid_by_global, self.config.theta)
                for idx in ordered
            ],
            split=array_splitter(0),
            merge=_merge_association_results,
        )
        if report is not None:
            report.execution = sup.report
        cluster_ids = np.full(all_hashes.size, UNASSIGNED, dtype=np.int64)
        distances = np.full(all_hashes.size, -1, dtype=np.int64)
        for shard_index, (community, idx) in enumerate(
            zip(groups, ordered)
        ):
            part = sup.results[shard_index]
            if part is None:
                if report is not None:
                    report.quarantined.append(f"associate:{community}")
                    report.status = "degraded"
                continue
            cluster_ids[idx] = part.cluster_ids
            distances[idx] = part.distances
        return AssociationResult(cluster_ids=cluster_ids, distances=distances)

    def _associate_cached(
        self,
        all_hashes: np.ndarray,
        medoid_by_global: dict[int, int],
        report: StageReport | None,
    ) -> AssociationResult:
        """Step 6's association, memoized with a prefix-delta slot.

        The slot key is (theta, the full index→medoid mapping); the
        value carries the input fingerprint plus the per-post arrays.
        Because each post's verdict depends only on its own hash, a run
        whose post stream merely *grew* (yesterday's posts form a
        prefix of today's, the append-only crawl pattern) associates
        only the suffix and concatenates — bit-identical to the cold
        call.  Incomplete outcomes (quarantined association shards) are
        never stored.
        """
        if self.cache is None:
            return self._associate_all(all_hashes, medoid_by_global, report)
        slot = self.cache.key(
            "associate-slot", self.config.theta, medoid_by_global
        )
        input_fp = fingerprint(all_hashes)
        stats = self.cache.stats
        hit, stored = self.cache.get(slot, count=False)
        if hit:
            if stored["input_fp"] == input_fp:
                stats.hits += 1
                stats.note_delta("associate:reused", int(all_hashes.size))
                return AssociationResult(
                    cluster_ids=stored["cluster_ids"],
                    distances=stored["distances"],
                )
            n_prev = int(stored["cluster_ids"].size)
            if (
                0 < n_prev < all_hashes.size
                and fingerprint(all_hashes[:n_prev]) == stored["input_fp"]
            ):
                stats.hits += 1
                suffix = self._associate_all(
                    all_hashes[n_prev:], medoid_by_global, report, n_prev
                )
                association = AssociationResult(
                    cluster_ids=np.concatenate(
                        [stored["cluster_ids"], suffix.cluster_ids]
                    ),
                    distances=np.concatenate(
                        [stored["distances"], suffix.distances]
                    ),
                )
                stats.note_delta("associate:reused", n_prev)
                stats.note_delta(
                    "associate:added", int(all_hashes.size) - n_prev
                )
                self._store_association(slot, input_fp, association, report)
                return association
        stats.misses += 1
        association = self._associate_all(all_hashes, medoid_by_global, report)
        self._store_association(slot, input_fp, association, report)
        return association

    def _store_association(
        self,
        slot: str,
        input_fp: str,
        association: AssociationResult,
        report: StageReport | None,
    ) -> None:
        if report is not None and report.quarantined:
            return
        self.cache.put(
            slot,
            {
                "input_fp": input_fp,
                "cluster_ids": association.cluster_ids,
                "distances": association.distances,
            },
        )

    def _associate_stage(
        self,
        report: StageReport,
        annotations: dict[ClusterKey, object],
        cluster_keys: list[ClusterKey],
    ) -> dict:
        """Step 6 over every community's posts (strict: no fallback)."""

        def compute() -> OccurrenceTable:
            medoid_by_global = {
                index: int(annotations[key].medoid_hash)
                for index, key in enumerate(cluster_keys)
            }
            all_hashes = np.array(
                [post.phash for post in self.world.posts], dtype=np.uint64
            )
            association = self._associate_cached(
                all_hashes, medoid_by_global, report
            )
            return build_occurrence_table(
                self.world.posts, annotations, cluster_keys, association
            )

        try:
            occurrences = self._run_item(report, "associate:all", compute)
        except Exception as error:
            raise StageFailure("associate", error) from error
        return {"occurrences": occurrences}

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------

    def run(self) -> PipelineResult:
        """Execute all stages and assemble the result."""
        cluster_payload = self._run_stage("cluster", self._cluster_stage)
        clusterings = cluster_payload["clusterings"]

        screenshot_payload = self._run_stage(
            "screenshot-filter", self._screenshot_stage
        )

        annotate_payload = self._run_stage(
            "annotate",
            lambda report: self._annotate_stage(
                report, clusterings, screenshot_payload["exclude"]
            ),
        )
        annotations = annotate_payload["annotations"]
        cluster_keys = annotate_payload["cluster_keys"]

        associate_payload = self._run_stage(
            "associate",
            lambda report: self._associate_stage(
                report, annotations, cluster_keys
            ),
        )

        return PipelineResult(
            clusterings=clusterings,
            annotations=annotations,
            cluster_keys=cluster_keys,
            occurrences=associate_payload["occurrences"],
            screenshot_report=screenshot_payload["report"],
            stage_reports=list(self.reports),
        )
