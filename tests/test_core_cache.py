"""Tests for the content-addressed cache and its runner integration."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.communities import FRINGE_COMMUNITIES, SyntheticWorld, WorldConfig
from repro.core import (
    ContentCache,
    Fault,
    FaultInjector,
    PipelineConfig,
    RunnerOptions,
    corrupt_file,
    fingerprint,
    run_pipeline,
)
from repro.core.cache import CODE_VERSION, CacheStats
from repro.core.runner import STAGES
from repro.utils.io import save_checkpoint
from repro.utils.parallel import ParallelConfig


def _fresh_world():
    """A fast world, regenerated per run: the screenshot stage flags
    KYM gallery entries in place, and cache keys are computed over the
    *pre-mutation* state, so each cached run needs a pristine world."""
    return SyntheticWorld.generate(
        WorldConfig(seed=7, events_unit=8.0, noise_scale=0.3)
    )


class _GrownWorld:
    """A world with extra posts appended to another world's stream."""

    def __init__(self, world, extra):
        self.posts = list(world.posts) + list(extra)
        self.kym_site = world.kym_site
        self.library = world.library
        self.config = world.config


def _assert_identical(a, b):
    """Bit-level equality of everything downstream analysis consumes."""
    assert set(a.clusterings) == set(b.clusterings)
    for community in a.clusterings:
        ca, cb = a.clusterings[community], b.clusterings[community]
        assert np.array_equal(ca.unique_hashes, cb.unique_hashes)
        assert np.array_equal(ca.counts, cb.counts)
        assert np.array_equal(ca.result.labels, cb.result.labels)
        assert np.array_equal(ca.result.core_mask, cb.result.core_mask)
        assert ca.medoids == cb.medoids
    assert a.cluster_keys == b.cluster_keys
    assert np.array_equal(
        a.occurrences.cluster_indices, b.occurrences.cluster_indices
    )
    assert a.occurrences.entry_names == b.occurrences.entry_names
    assert np.array_equal(a.occurrences.is_racist, b.occurrences.is_racist)
    assert [p.image_id for p in a.occurrences.posts] == [
        p.image_id for p in b.occurrences.posts
    ]


class TestFingerprint:
    def test_type_tags_distinguish_lookalikes(self):
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(1) != fingerprint(True)
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(()) != fingerprint("")
        assert fingerprint(None) != fingerprint("")
        assert fingerprint(b"x") != fingerprint("x")

    def test_array_content_dtype_and_shape_matter(self):
        a = np.arange(6, dtype=np.int64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.astype(np.uint64))
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))
        mutated = a.copy()
        mutated[3] = 99
        assert fingerprint(a) != fingerprint(mutated)

    def test_dict_insertion_order_is_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_nested_structures(self):
        assert fingerprint([1, (2, 3)]) == fingerprint([1, (2, 3)])
        assert fingerprint([1, (2, 3)]) != fingerprint([1, (3, 2)])

    def test_config_changes_change_the_fingerprint(self):
        base = PipelineConfig()
        for changed in (
            PipelineConfig(clustering_eps=6),
            PipelineConfig(theta=4),
            PipelineConfig(clustering_min_samples=3),
        ):
            assert fingerprint(base) != fingerprint(changed)

    def test_code_version_is_part_of_every_key(self):
        cache = ContentCache()
        assert cache.key("k", 1) == fingerprint(CODE_VERSION, "k", 1)

    def test_dataclass_recursion_sorts_embedded_sets(self):
        @dataclass
        class Entry:
            name: str
            tags: frozenset

        a = Entry("pepe", frozenset({"racism", "frog", "wojak"}))
        b = Entry("pepe", frozenset({"wojak", "racism", "frog"}))
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(
            Entry("pepe", frozenset({"racism", "frog"}))
        )

    def test_fingerprint_stable_across_hash_randomization(self):
        """Stage keys must survive process restarts: pickle serialises
        embedded sets in PYTHONHASHSEED-dependent order, so objects with
        frozenset fields (KYM entries) must take the recursive path.
        Regression: warm CLI re-runs missed the screenshot/annotate
        stages whenever the new process drew a different hash seed."""
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        snippet = (
            "from dataclasses import dataclass\n"
            "from repro.core.cache import fingerprint\n"
            "@dataclass\n"
            "class Entry:\n"
            "    name: str\n"
            "    tags: frozenset\n"
            "e = Entry('pepe', frozenset({'racism', 'frog', 'wojak'}))\n"
            "print(fingerprint(e, {'k': {'x', 'y'}}))\n"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src_dir
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestContentCache:
    def test_memory_roundtrip_and_stats(self):
        cache = ContentCache()
        key = cache.key("unit", 1)
        hit, _ = cache.get(key)
        assert not hit and cache.stats.misses == 1
        cache.put(key, {"x": 1})
        hit, value = cache.get(key)
        assert hit and value == {"x": 1}
        assert cache.stats.hits == 1

    def test_get_or_compute_computes_once(self):
        cache = ContentCache()
        calls = []
        key = cache.key("unit", 2)
        assert cache.get_or_compute(key, lambda: calls.append(1) or 7) == 7
        assert cache.get_or_compute(key, lambda: calls.append(1) or 7) == 7
        assert len(calls) == 1

    def test_uncounted_get_leaves_hit_miss_to_caller(self):
        cache = ContentCache()
        key = cache.key("slot", 1)
        hit, _ = cache.get(key, count=False)
        assert not hit
        cache.put(key, 1)
        hit, _ = cache.get(key, count=False)
        assert hit
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_lru_eviction_and_disk_survival(self, tmp_path):
        cache = ContentCache(tmp_path, max_memory_entries=2)
        keys = [cache.key("unit", i) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted (oldest) entry still loads from disk.
        hit, value = cache.get(keys[0])
        assert hit and value == 0
        assert cache.stats.bytes_read > 0

    def test_lru_recency_updated_on_hit(self):
        cache = ContentCache(max_memory_entries=2)
        a, b, c = (cache.key("unit", i) for i in "abc")
        cache.put(a, 1)
        cache.put(b, 2)
        cache.get(a)  # a becomes most recent; b is now the LRU entry
        cache.put(c, 3)
        assert cache.get(a)[0]
        assert not cache.get(b)[0]

    def test_entries_total_bytes_and_clear(self, tmp_path):
        cache = ContentCache(tmp_path)
        for i in range(3):
            cache.put(cache.key("unit", i), np.arange(i + 1))
        entries = cache.entries()
        assert len(entries) == 3
        assert cache.total_bytes() == sum(size for _, size in entries)
        assert cache.clear() == 3
        assert cache.entries() == [] and len(cache) == 0

    def test_max_memory_entries_validated(self):
        with pytest.raises(ValueError):
            ContentCache(max_memory_entries=0)


class TestCorruptionAndStaleness:
    def _entry_path(self, cache, key):
        path = cache._entry_path(key)
        assert path is not None and path.exists()
        return path

    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_corrupt_disk_entry_is_a_miss_and_removed(self, tmp_path, mode):
        writer = ContentCache(tmp_path)
        key = writer.key("unit", "payload")
        writer.put(key, np.arange(100))
        path = self._entry_path(writer, key)
        corrupt_file(path, mode=mode)
        reader = ContentCache(tmp_path)  # fresh memory tier
        hit, _ = reader.get(key)
        assert not hit
        assert reader.stats.misses == 1
        assert len(reader.stats.errors) == 1
        assert not path.exists(), "bad entry must be deleted"
        # Recompute-and-store heals the cache.
        reader.put(key, np.arange(100))
        assert ContentCache(tmp_path).get(key)[0]

    def test_stale_fingerprint_is_a_miss(self, tmp_path):
        writer = ContentCache(tmp_path)
        key = writer.key("unit", "payload")
        writer.put(key, 42)
        path = self._entry_path(writer, key)
        # Overwrite with an intact container carrying the wrong
        # fingerprint (e.g. an entry from a different code version).
        save_checkpoint(path, {"value": 42}, fingerprint="some-other-format")
        reader = ContentCache(tmp_path)
        hit, _ = reader.get(key)
        assert not hit and len(reader.stats.errors) == 1

    def test_entry_without_value_field_is_a_miss(self, tmp_path):
        cache = ContentCache(tmp_path)
        key = cache.key("unit", "x")
        path = tmp_path / key[:2] / f"{key}.ckpt"
        path.parent.mkdir(parents=True)
        save_checkpoint(
            path, {"wrong": 1}, fingerprint=cache._entry_fingerprint(key)
        )
        hit, _ = cache.get(key)
        assert not hit and len(cache.stats.errors) == 1


    def test_entry_deleted_mid_read_is_a_miss(self, tmp_path, monkeypatch):
        """Runs share a cache directory without a lock, so another run's
        corrupt-entry unlink (or ``cache clear``) can remove an entry
        between the lookup and the read: that is a plain miss."""
        import repro.core.cache as cache_module

        writer = ContentCache(tmp_path)
        key = writer.key("unit", "payload")
        writer.put(key, 42)
        real_load = cache_module.load_checkpoint

        def vanishing_load(path, **kwargs):
            Path(path).unlink()
            return real_load(path, **kwargs)

        monkeypatch.setattr(cache_module, "load_checkpoint", vanishing_load)
        reader = ContentCache(tmp_path)
        assert reader.get(key) == (False, None)
        assert reader.stats.misses == 1 and reader.stats.errors == []


class TestCacheStats:
    def test_since_subtracts_counters_and_slices_errors(self):
        stats = CacheStats(hits=3, misses=1, errors=["a"], deltas={"x": 5})
        base = stats.copy()
        stats.hits += 2
        stats.errors.append("b")
        stats.note_delta("x", 4)
        stats.note_delta("y", 1)
        diff = stats.since(base)
        assert diff.hits == 2 and diff.misses == 0
        assert diff.errors == ["b"]
        assert diff.deltas == {"x": 4, "y": 1}

    def test_summary_mentions_deltas(self):
        stats = CacheStats(hits=2)
        stats.note_delta("cluster:pol:added", 10)
        text = stats.summary()
        assert "hits=2" in text and "cluster:pol:added=10" in text


class TestRunnerWarmCache:
    def test_warm_run_is_bit_identical_and_all_stages_cached(self, tmp_path):
        config = PipelineConfig()
        cold = run_pipeline(_fresh_world(), config)
        first = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        warm = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        _assert_identical(cold, first)
        _assert_identical(cold, warm)
        assert [r.name for r in warm.stage_reports] == list(STAGES)
        for report in first.stage_reports:
            assert not report.cached
            assert report.cache_stats is not None
            assert report.cache_stats.misses >= 1
        for report in warm.stage_reports:
            assert report.cached, report.summary()
            assert report.cache_stats.misses == 0
            assert "cached" in report.summary()

    def test_config_change_invalidates(self, tmp_path):
        run_pipeline(
            _fresh_world(),
            PipelineConfig(),
            options=RunnerOptions(cache_dir=tmp_path),
        )
        changed = run_pipeline(
            _fresh_world(),
            PipelineConfig(clustering_eps=6, theta=6),
            options=RunnerOptions(cache_dir=tmp_path),
        )
        # eps/θ feed the cluster, annotate, and associate keys; the
        # screenshot filter does not depend on either, so that stage is
        # the only one allowed to reuse its entry.
        for report in changed.stage_reports:
            if report.name == "screenshot-filter":
                continue
            assert not report.cached, report.summary()

    def test_shared_cache_instance_reuses_memory_tier(self):
        cache = ContentCache()  # memory-only: no directory at all
        config = PipelineConfig()
        first = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache=cache)
        )
        warm = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache=cache)
        )
        _assert_identical(first, warm)
        for report in warm.stage_reports:
            assert report.cached, report.summary()

    def test_corrupt_entry_recomputed_and_reported(self, tmp_path):
        config = PipelineConfig()
        cold = run_pipeline(_fresh_world(), config)
        run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        for path in sorted(tmp_path.glob("*/*.ckpt"))[:2]:
            corrupt_file(path, mode="flip")
        healed = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        _assert_identical(cold, healed)
        errors = [
            error
            for report in healed.stage_reports
            if report.cache_stats is not None
            for error in report.cache_stats.errors
        ]
        assert errors, "corruption must be surfaced in the stage reports"


    def test_entry_deleted_mid_read_run_continues(self, tmp_path, monkeypatch):
        import repro.core.cache as cache_module

        config = PipelineConfig()
        run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        real_load = cache_module.load_checkpoint
        vanished = []

        def vanish_first(path, **kwargs):
            if not vanished:
                vanished.append(path)
                Path(path).unlink()
            return real_load(path, **kwargs)

        monkeypatch.setattr(cache_module, "load_checkpoint", vanish_first)
        rerun = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        assert vanished
        # A miss, not an error: no work item needed a retry (an OSError
        # from the read would be retried, hiding the crash).
        cluster = rerun.stage_report("cluster")
        assert cluster.attempts == len(FRINGE_COMMUNITIES), cluster.notes
        # The first read is a cluster slot: clustering recomputes that
        # community, and every later stage still hits.
        assert [r.cached for r in rerun.stage_reports] == [
            False, True, True, True,
        ]
        _assert_identical(run_pipeline(_fresh_world(), config), rerun)

    @pytest.mark.parametrize(
        "site", ["cluster:pol", "annotate:pol", "screenshot-filter:oracle"]
    )
    def test_degraded_outcome_not_persisted(self, tmp_path, site):
        """A quarantined community or a lower screenshot rung is never
        stored: once the fault clears, a warm re-run recomputes the
        stage and equals a clean cold run."""
        config = PipelineConfig()
        faults = FaultInjector([Fault(site, RuntimeError, times=9)])
        degraded = run_pipeline(
            _fresh_world(),
            config,
            options=RunnerOptions(cache_dir=tmp_path, faults=faults),
        )
        stage = site.split(":")[0]
        assert degraded.degraded
        assert degraded.stage_report(stage).status == "degraded"

        rerun = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        assert not rerun.degraded
        assert not rerun.stage_report(stage).cached
        _assert_identical(run_pipeline(_fresh_world(), config), rerun)

    def test_classifier_gallery_flags_replayed_on_hit(
        self, tmp_path, monkeypatch
    ):
        """The classifier re-flags gallery images in place; a screenshot
        cache hit on a fresh world must replay the stored flags."""
        import repro.core.pipeline as pipeline_module

        def gallery_flags(world):
            return [
                image.is_screenshot
                for image in next(iter(world.kym_site)).gallery
            ]

        def flipping_filter(site, config, *, seed=0, library=None):
            entry = next(iter(site))
            image = entry.gallery[0]
            entry.gallery[0] = type(image)(
                phash=image.phash,
                is_screenshot=not image.is_screenshot,
                template_name=image.template_name,
                image=image.image,
            )
            return True, None

        def no_filter(site, config, *, seed=0, library=None):
            raise AssertionError("a cache hit must not run the filter")

        config = PipelineConfig(screenshot_filter="classifier")
        monkeypatch.setattr(
            pipeline_module, "filter_kym_screenshots", flipping_filter
        )
        first_world = _fresh_world()
        pristine = gallery_flags(first_world)
        run_pipeline(
            first_world, config, options=RunnerOptions(cache_dir=tmp_path)
        )
        flipped = gallery_flags(first_world)
        assert flipped != pristine

        monkeypatch.setattr(pipeline_module, "filter_kym_screenshots", no_filter)
        second_world = _fresh_world()
        result = run_pipeline(
            second_world, config, options=RunnerOptions(cache_dir=tmp_path)
        )
        assert result.stage_report("screenshot-filter").cached
        assert gallery_flags(second_world) == flipped

    def test_runners_sharing_a_cache_dir_finish_identical(self, tmp_path):
        """Runs share one cache directory with no lock: every entry is
        written atomically under a content key, so two concurrent runs
        both finish bit-identical to a cold run, and a third is warm."""
        from concurrent.futures import ThreadPoolExecutor

        config = PipelineConfig()
        worlds = [_fresh_world(), _fresh_world()]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(
                pool.map(
                    lambda world: run_pipeline(
                        world,
                        config,
                        options=RunnerOptions(cache_dir=tmp_path),
                    ),
                    worlds,
                    timeout=300,
                )
            )
        cold = run_pipeline(_fresh_world(), config)
        for result in results:
            _assert_identical(cold, result)
        warm = run_pipeline(
            _fresh_world(), config, options=RunnerOptions(cache_dir=tmp_path)
        )
        assert all(report.cached for report in warm.stage_reports)
        _assert_identical(cold, warm)


class TestRunnerDeltaCache:
    def test_grown_subset_runs_delta_and_matches_cold(self, tmp_path):
        """Prime with a prefix of the post stream, run the full stream:
        clustering merges only the new hashes, association only the new
        posts, and everything stays bit-identical to a cold full run."""
        config = PipelineConfig()
        full = _fresh_world()
        n = len(full.posts)
        prefix = _GrownWorld(_fresh_world(), [])
        prefix.posts = prefix.posts[: n - max(1, n // 20)]
        run_pipeline(prefix, config, options=RunnerOptions(cache_dir=tmp_path))

        cold = run_pipeline(_fresh_world(), config)
        delta = run_pipeline(
            full, config, options=RunnerOptions(cache_dir=tmp_path)
        )
        _assert_identical(cold, delta)
        cluster_stats = delta.stage_report("cluster").cache_stats
        assert cluster_stats.hits >= 1
        assert any(
            label.endswith(":reused") for label in cluster_stats.deltas
        ), cluster_stats.deltas

    def test_appended_duplicates_take_the_associate_prefix_path(
        self, tmp_path
    ):
        """Appending copies of *non-fringe* posts leaves every fringe
        clustering (and hence every medoid) untouched, so the associate
        slot does suffix-only work against the cached prefix."""
        self._check_associate_prefix_path(tmp_path, parallel=None)

    def test_associate_prefix_path_under_workers(self, tmp_path):
        """The per-community fan-out of the suffix groups the suffix's
        own posts (it once grouped every post of the world and indexed
        past the end of the suffix)."""
        self._check_associate_prefix_path(
            tmp_path, parallel=ParallelConfig(workers=2, backend="thread")
        )

    def _check_associate_prefix_path(self, tmp_path, parallel):
        config = PipelineConfig()
        base = _fresh_world()
        run_pipeline(
            base,
            config,
            options=RunnerOptions(cache_dir=tmp_path, parallel=parallel),
        )

        mainstream = [
            post
            for post in _fresh_world().posts
            if post.community not in FRINGE_COMMUNITIES
        ]
        extra = mainstream[:: max(1, len(mainstream) // 40)]
        grown = _GrownWorld(_fresh_world(), extra)
        cold = run_pipeline(_GrownWorld(_fresh_world(), extra), config)
        delta = run_pipeline(
            grown,
            config,
            options=RunnerOptions(cache_dir=tmp_path, parallel=parallel),
        )
        _assert_identical(cold, delta)
        associate = delta.stage_report("associate")
        assert associate.cache_stats.deltas.get("associate:added") == len(
            extra
        ), associate.cache_stats.deltas
        assert associate.cache_stats.misses == 0
        # Delta work ran, so the stage must NOT claim to be fully cached.
        assert not associate.cached
