"""Tests for the staged fault-tolerant runner."""

import numpy as np
import pytest

from repro.communities import FRINGE_COMMUNITIES, SyntheticWorld, WorldConfig
from repro.core import (
    Fault,
    FaultInjector,
    PipelineConfig,
    RunnerOptions,
    StageFailure,
    run_pipeline,
)
from repro.core.runner import STAGES
from repro.utils.retry import TransientError


@pytest.fixture(scope="module")
def small_world():
    """A fast world for runner mechanics (fault paths)."""
    return SyntheticWorld.generate(
        WorldConfig(seed=7, events_unit=8.0, noise_scale=0.3)
    )


def options(**kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    return RunnerOptions(**kwargs)


class TestRunnerPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RunnerOptions(max_retries=-1)
        assert RunnerOptions(max_retries=0).max_retries == 0

    def test_screenshot_ladder(self):
        assert PipelineConfig(screenshot_filter="classifier").screenshot_ladder() == (
            "classifier",
            "oracle",
            "none",
        )
        assert PipelineConfig(screenshot_filter="oracle").screenshot_ladder() == (
            "oracle",
            "none",
        )
        assert PipelineConfig(screenshot_filter="none").screenshot_ladder() == (
            "none",
        )


class TestStageReports:
    def test_all_stages_reported(self, small_world):
        result = run_pipeline(small_world, PipelineConfig())
        assert [report.name for report in result.stage_reports] == list(STAGES)
        for report in result.stage_reports:
            assert report.status == "completed"
            assert report.duration_s >= 0.0
        assert not result.degraded

    def test_per_community_attempts_counted(self, small_world):
        result = run_pipeline(small_world, PipelineConfig())
        assert result.stage_report("cluster").attempts == len(FRINGE_COMMUNITIES)
        assert result.stage_report("associate").attempts == 1

    def test_stage_report_lookup(self, small_world):
        result = run_pipeline(small_world, PipelineConfig())
        assert result.stage_report("cluster").name == "cluster"
        assert result.stage_report("no-such-stage") is None

    def test_summary_is_one_line(self, small_world):
        result = run_pipeline(small_world, PipelineConfig())
        for report in result.stage_reports:
            assert "\n" not in report.summary()
            assert report.name in report.summary()


class TestSeedThreading:
    def test_world_seed_reaches_screenshot_filter(self, small_world, monkeypatch):
        """Regression: the classifier stage must train with the world's
        seed, not a hard-coded 0."""
        import repro.core.pipeline as pipeline_module

        seen = {}

        def fake_filter(site, config, *, seed=0, library=None):
            seen["seed"] = seed
            return True, None

        monkeypatch.setattr(
            pipeline_module, "filter_kym_screenshots", fake_filter
        )
        run_pipeline(small_world, PipelineConfig())
        assert seen["seed"] == small_world.config.seed == 7

    def test_explicit_seed_override(self, small_world, monkeypatch):
        import repro.core.pipeline as pipeline_module

        seen = {}

        def fake_filter(site, config, *, seed=0, library=None):
            seen["seed"] = seed
            return True, None

        monkeypatch.setattr(
            pipeline_module, "filter_kym_screenshots", fake_filter
        )
        run_pipeline(small_world, PipelineConfig(), options=options(seed=99))
        assert seen["seed"] == 99


class TestRetry:
    def test_transient_fault_retried_to_success(self, small_world):
        injector = FaultInjector(
            [Fault("cluster:pol", TransientError, times=2)]
        )
        result = run_pipeline(small_world, options=options(faults=injector))
        report = result.stage_report("cluster")
        assert report.status == "completed"
        assert report.attempts == len(FRINGE_COMMUNITIES) + 2
        assert any("succeeded after 3 attempts" in note for note in report.notes)

    def test_max_retries_zero_fails_fast(self, small_world):
        injector = FaultInjector([Fault("cluster:pol", TransientError, times=1)])
        result = run_pipeline(
            small_world,
            options=options(faults=injector, max_retries=0),
        )
        # One transient failure, no retries allowed: pol is quarantined.
        assert "cluster:pol" in result.stage_report("cluster").quarantined


class TestQuarantine:
    def test_failing_community_is_isolated(self, world):
        """Acceptance: one community's clustering dies permanently; the
        other fringe communities still produce annotated clusters."""
        injector = FaultInjector([Fault("cluster:pol", ValueError("bad"), times=1)])
        result = run_pipeline(world, options=options(faults=injector))
        report = result.stage_report("cluster")
        assert report.status == "degraded"
        assert report.quarantined == ["cluster:pol"]
        assert result.degraded
        assert result.clusterings["pol"].n_clusters == 0
        for community in FRINGE_COMMUNITIES:
            if community == "pol":
                continue
            assert result.clusterings[community].n_clusters >= 1
            assert result.n_annotated(community) >= 1

    def test_annotate_quarantine(self, small_world):
        injector = FaultInjector(
            [Fault("annotate:pol", ValueError("bad"), times=1)]
        )
        result = run_pipeline(small_world, options=options(faults=injector))
        report = result.stage_report("annotate")
        assert report.quarantined == ["annotate:pol"]
        assert all(key.community != "pol" for key in result.cluster_keys)


class TestDegradationLadder:
    def test_classifier_falls_back_to_oracle(self, small_world):
        """Acceptance: injected classifier failure completes in oracle
        mode and the StageReport records the degradation."""
        injector = FaultInjector(
            [Fault("screenshot-filter:classifier", ValueError("cnn died"), times=1)]
        )
        result = run_pipeline(
            small_world,
            PipelineConfig(screenshot_filter="classifier"),
            options=options(faults=injector),
        )
        report = result.stage_report("screenshot-filter")
        assert report.status == "degraded"
        assert report.fallbacks == ["classifier->oracle"]
        assert "cnn died" in report.error
        assert result.screenshot_report is None  # oracle mode has no CNN eval
        assert result.cluster_keys  # the run still annotated clusters

    def test_full_ladder_to_none(self, small_world):
        injector = FaultInjector(
            [
                Fault("screenshot-filter:classifier", ValueError("a"), times=1),
                Fault("screenshot-filter:oracle", ValueError("b"), times=1),
            ]
        )
        result = run_pipeline(
            small_world,
            PipelineConfig(screenshot_filter="classifier"),
            options=options(faults=injector),
        )
        report = result.stage_report("screenshot-filter")
        assert report.fallbacks == ["classifier->oracle", "oracle->none"]
        assert report.status == "degraded"

    def test_ladder_exhaustion_raises(self, small_world):
        injector = FaultInjector(
            [Fault("screenshot-filter:none", ValueError("c"), times=1)]
        )
        with pytest.raises(StageFailure):
            run_pipeline(
                small_world,
                PipelineConfig(screenshot_filter="none"),
                options=options(faults=injector),
            )


class TestFaultHarness:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("x", times=0)
        with pytest.raises(ValueError):
            Fault("x", action="explode")

    def test_fault_disarms_after_times(self):
        injector = FaultInjector([Fault("site", TransientError, times=2)])
        for _ in range(2):
            with pytest.raises(TransientError):
                injector.fire("site")
        injector.fire("site")  # disarmed: no-op
        assert injector.fired_sites() == ["site", "site"]

    def test_unarmed_site_is_noop(self):
        injector = FaultInjector([Fault("a", TransientError)])
        injector.fire("b")
        assert injector.fired_sites() == []

    def test_corrupt_fault_requires_path(self):
        injector = FaultInjector([Fault("ckpt", action="corrupt")])
        with pytest.raises(ValueError, match="file path"):
            injector.fire("ckpt")


class TestAssociateStage:
    """Step 6 has one recovery path: the stage retry of ``associate:all``."""

    def test_persistent_failure_fails_the_stage(self, small_world):
        injector = FaultInjector([Fault("associate:all", RuntimeError)])
        with pytest.raises(StageFailure) as failure:
            run_pipeline(small_world, options=options(faults=injector))
        assert failure.value.stage == "associate"

    def test_transient_failure_healed_by_stage_retry(self, small_world):
        injector = FaultInjector(
            [Fault("associate:all", TransientError, times=1)]
        )
        result = run_pipeline(small_world, options=options(faults=injector))
        assert result.stage_report("associate").attempts == 2
        clean = run_pipeline(small_world, options=options())
        assert result.cluster_keys == clean.cluster_keys
        assert result.occurrences.posts == clean.occurrences.posts
        assert np.array_equal(
            result.occurrences.cluster_indices,
            clean.occurrences.cluster_indices,
        )
        assert result.occurrences.entry_names == clean.occurrences.entry_names
