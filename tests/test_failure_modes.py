"""Failure injection: degenerate worlds, edge configurations, crashes."""

import numpy as np
import pytest

from repro.annotation.catalog import CatalogEntry
from repro.communities import SyntheticWorld, WorldConfig
from repro.core import (
    Fault,
    FaultInjector,
    PipelineConfig,
    RunnerOptions,
    corrupt_file,
    run_pipeline,
)
from repro.utils.io import load_checkpoint
from tests.test_core_cache import _assert_identical


@pytest.fixture(scope="module")
def tiny_world():
    """A nearly-empty world: few events, little noise."""
    return SyntheticWorld.generate(
        WorldConfig(seed=77, events_unit=2.0, noise_scale=0.2)
    )


class TestTinyWorld:
    def test_generation_succeeds(self, tiny_world):
        assert len(tiny_world.posts) > 0

    def test_pipeline_handles_sparse_communities(self, tiny_world):
        result = run_pipeline(tiny_world, PipelineConfig())
        # Gab/The_Donald likely have zero clusters at this scale; the
        # pipeline must cope, not crash.
        for clustering in result.clusterings.values():
            assert clustering.n_clusters >= 0
        assert len(result.occurrences) >= 0

    def test_influence_study_on_sparse_data(self, tiny_world):
        from repro.analysis import influence_study

        result = run_pipeline(tiny_world, PipelineConfig())
        study = influence_study(
            result, tiny_world.config.horizon_days, min_events=5
        )
        assert study.total.expected_events.shape == (5, 5)
        assert np.all(np.isfinite(study.total.expected_events))


class TestSingleEntryCatalog:
    def test_one_meme_world(self):
        catalog = (
            CatalogEntry(
                name="lonely-meme",
                family="solo",
                tags=frozenset({"politics"}),
            ),
        )
        world = SyntheticWorld.generate(
            WorldConfig(seed=5, events_unit=10.0, noise_scale=0.3),
            catalog=catalog,
        )
        assert {p.template_name for p in world.posts if p.is_meme} == {
            "lonely-meme"
        }
        result = run_pipeline(world, PipelineConfig())
        for annotation in result.annotations.values():
            assert annotation.representative == "lonely-meme"


class _ZeroPostWorld:
    """A world-shaped object with no posts at all (pre-launch platform)."""

    def __init__(self, template):
        self.posts = []
        self.kym_site = template.kym_site
        self.library = getattr(template, "library", None)
        self.config = template.config


class TestZeroPostWorld:
    def test_full_runner_on_empty_stream(self, tiny_world):
        world = _ZeroPostWorld(tiny_world)
        result = run_pipeline(world, PipelineConfig())
        assert [r.status for r in result.stage_reports] == ["completed"] * 4
        assert len(result.occurrences) == 0
        assert result.cluster_keys == []
        for clustering in result.clusterings.values():
            assert clustering.n_clusters == 0
            assert clustering.n_images == 0

    def test_empty_stream_cache_roundtrip(self, tiny_world, tmp_path):
        world = _ZeroPostWorld(tiny_world)
        options = RunnerOptions(cache_dir=tmp_path)
        run_pipeline(world, PipelineConfig(), options=options)
        warm = run_pipeline(
            world, PipelineConfig(), options=RunnerOptions(cache_dir=tmp_path)
        )
        assert [r.status for r in warm.stage_reports] == ["completed"] * 4
        # Clustering has no hashes to look up; every later stage hits.
        assert [r.cached for r in warm.stage_reports] == [
            False, True, True, True,
        ]
        assert len(warm.occurrences) == 0


def _cache_entry(cache_dir, field):
    """The first cache entry whose stored value carries ``field``
    (``"neighbors"``: a cluster slot, ``"cluster_ids"``: the associate
    slot)."""
    for path in sorted(cache_dir.glob("*/*.ckpt")):
        value = load_checkpoint(path)["value"]
        if isinstance(value, dict) and field in value:
            return path
    raise AssertionError(f"no cache entry holds {field!r}")


class TestCrashAndResume:
    """A crashed run restarts by re-running warm on the same cache."""

    def test_mid_run_crash_then_resume(self, tiny_world, tmp_path):
        """Injected crash at the associate boundary; the re-run hits
        every stage that finished before it and equals a cold run."""
        injector = FaultInjector(
            [Fault("associate", KeyboardInterrupt(), times=1)]
        )
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(
                tiny_world,
                PipelineConfig(),
                options=RunnerOptions(cache_dir=tmp_path, faults=injector),
            )

        result = run_pipeline(
            tiny_world,
            PipelineConfig(),
            options=RunnerOptions(cache_dir=tmp_path),
        )
        cached = {r.name: r.cached for r in result.stage_reports}
        assert cached == {
            "cluster": True,
            "screenshot-filter": True,
            "annotate": True,
            "associate": False,
        }
        assert all(r.status == "completed" for r in result.stage_reports)
        _assert_identical(result, run_pipeline(tiny_world, PipelineConfig()))

    def test_corrupted_checkpoint_detected_and_recomputed(
        self, tiny_world, tmp_path
    ):
        """A flipped byte in a cluster slot's container is caught by its
        digest; only clustering recomputes, later stages still hit."""
        run_pipeline(
            tiny_world,
            PipelineConfig(),
            options=RunnerOptions(cache_dir=tmp_path),
        )
        corrupt_file(_cache_entry(tmp_path, "neighbors"), mode="flip")
        result = run_pipeline(
            tiny_world,
            PipelineConfig(),
            options=RunnerOptions(cache_dir=tmp_path),
        )
        report = result.stage_report("cluster")
        assert report.status == "completed" and not report.cached
        assert any("digest mismatch" in e for e in report.cache_stats.errors)
        assert result.stage_report("annotate").cached
        assert result.stage_report("associate").cached
        _assert_identical(result, run_pipeline(tiny_world, PipelineConfig()))

    def test_truncated_checkpoint_detected(self, tiny_world, tmp_path):
        run_pipeline(
            tiny_world,
            PipelineConfig(),
            options=RunnerOptions(cache_dir=tmp_path),
        )
        corrupt_file(_cache_entry(tmp_path, "cluster_ids"), mode="truncate")
        result = run_pipeline(
            tiny_world,
            PipelineConfig(),
            options=RunnerOptions(cache_dir=tmp_path),
        )
        report = result.stage_report("associate")
        assert report.status == "completed" and not report.cached
        assert any("truncated" in e for e in report.cache_stats.errors)
        _assert_identical(result, run_pipeline(tiny_world, PipelineConfig()))


class TestScreenshotDegradation:
    def test_fallback_chain_recorded(self, tiny_world):
        """The classifier rung dies permanently; the run completes via
        the oracle rung and the report shows the whole chain."""
        injector = FaultInjector(
            [Fault("screenshot-filter:classifier", RuntimeError("oom"), times=1)]
        )
        result = run_pipeline(
            tiny_world,
            PipelineConfig(screenshot_filter="classifier"),
            options=RunnerOptions(faults=injector, sleep=lambda s: None),
        )
        report = result.stage_report("screenshot-filter")
        assert report.status == "degraded"
        assert report.fallbacks == ["classifier->oracle"]
        assert "oom" in report.error
        assert result.degraded


class TestExtremeConfigs:
    def test_zero_theta_pipeline(self, tiny_world):
        # Exact-match-only annotation: nothing crashes, fewer matches.
        strict = run_pipeline(tiny_world, PipelineConfig(theta=0))
        loose = run_pipeline(tiny_world, PipelineConfig(theta=8))
        assert len(strict.occurrences) <= len(loose.occurrences)

    def test_min_samples_one_clusters_everything(self, tiny_world):
        config = PipelineConfig(clustering_min_samples=1)
        result = run_pipeline(tiny_world, config)
        for clustering in result.clusterings.values():
            # Every point is a core point; no noise remains.
            assert clustering.image_noise_fraction == 0.0

    def test_huge_eps_merges_all(self, tiny_world):
        config = PipelineConfig(clustering_eps=64)
        result = run_pipeline(tiny_world, config)
        for clustering in result.clusterings.values():
            if clustering.unique_hashes.size >= 5:
                assert clustering.n_clusters == 1
