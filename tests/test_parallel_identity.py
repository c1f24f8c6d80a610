"""Property tests: parallel runs are bit-identical to serial runs.

The ISSUE-2 contract for the parallel layer is *bit-identity*, not
"statistically the same": labels, associations and Hawkes influence
matrices produced under ``--workers 4`` must equal the serial output
exactly, for both the thread and process backends.

ISSUE-4 extends the contract to *supervised* execution: with chaos
injected — a process worker killed mid-fan-out, shards raising — the
run must still complete, the :class:`ExecutionReport` must record what
was retried/quarantined, and every surviving shard's output must remain
bit-identical to the serial path (quarantined shards surface as
explicit gaps, never silently truncated results).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import influence_study
from repro.core import (
    Fault,
    FaultInjector,
    PipelineConfig,
    RunnerOptions,
    run_pipeline,
)
from repro.utils.parallel import ParallelConfig

BACKENDS = ("thread", "process")


@pytest.fixture(scope="module", params=BACKENDS)
def parallel_result(request, world):
    """The full pipeline under 4 workers on the session world."""
    options = RunnerOptions(
        parallel=ParallelConfig(workers=4, backend=request.param)
    )
    return run_pipeline(world, PipelineConfig(), options=options)


class TestPipelineIdentity:
    def test_cluster_labels_identical(self, pipeline_result, parallel_result):
        assert set(parallel_result.clusterings) == set(
            pipeline_result.clusterings
        )
        for community, serial in pipeline_result.clusterings.items():
            par = parallel_result.clusterings[community]
            assert np.array_equal(par.unique_hashes, serial.unique_hashes)
            assert np.array_equal(par.result.labels, serial.result.labels)
            assert np.array_equal(
                par.result.core_mask, serial.result.core_mask
            )
            assert par.medoids == serial.medoids

    def test_annotations_identical(self, pipeline_result, parallel_result):
        assert parallel_result.cluster_keys == pipeline_result.cluster_keys
        assert set(parallel_result.annotations) == set(
            pipeline_result.annotations
        )
        for key, serial in pipeline_result.annotations.items():
            assert parallel_result.annotations[key] == serial

    def test_associations_identical(self, pipeline_result, parallel_result):
        serial = pipeline_result.occurrences
        par = parallel_result.occurrences
        assert par.posts == serial.posts
        assert np.array_equal(par.cluster_indices, serial.cluster_indices)
        assert par.entry_names == serial.entry_names
        assert np.array_equal(par.is_racist, serial.is_racist)
        assert np.array_equal(par.is_politics, serial.is_politics)


class TestInfluenceIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hawkes_matrices_identical(
        self, world, pipeline_result, backend
    ):
        serial = influence_study(
            pipeline_result, world.config.horizon_days, min_events=10
        )
        par = influence_study(
            pipeline_result,
            world.config.horizon_days,
            min_events=10,
            parallel=ParallelConfig(workers=4, backend=backend),
        )
        assert np.array_equal(
            par.total.expected_events, serial.total.expected_events
        )
        assert np.array_equal(
            par.total.event_counts, serial.total.event_counts
        )
        assert set(par.per_cluster) == set(serial.per_cluster)
        for key, matrices in serial.per_cluster.items():
            assert np.array_equal(
                par.per_cluster[key].expected_events, matrices.expected_events
            )
        for name, group in serial.groups.items():
            assert np.array_equal(
                par.groups[name].expected_events, group.expected_events
            )
        assert par.failures == serial.failures


class TestChaosRecoveryIdentity:
    """Kill a process worker mid-fan-out: the run completes and every
    salvaged output is bit-identical to the serial path."""

    def test_worker_kill_pipeline_identical_to_serial(
        self, world, pipeline_result
    ):
        faults = FaultInjector(
            [Fault("parallel:worker", action="kill", times=1)]
        )
        chaotic = run_pipeline(
            world,
            PipelineConfig(),
            options=RunnerOptions(
                parallel=ParallelConfig(workers=2, backend="process"),
                faults=faults,
            ),
        )
        assert "parallel:worker" in faults.fired_sites()
        assert not chaotic.degraded  # one dead worker, zero losses
        for community, serial in pipeline_result.clusterings.items():
            par = chaotic.clusterings[community]
            assert np.array_equal(par.result.labels, serial.result.labels)
            assert par.medoids == serial.medoids
        assert chaotic.cluster_keys == pipeline_result.cluster_keys
        assert chaotic.occurrences.posts == pipeline_result.occurrences.posts
        assert np.array_equal(
            chaotic.occurrences.cluster_indices,
            pipeline_result.occurrences.cluster_indices,
        )

    def test_worker_kill_influence_reports_retried_shards(
        self, world, pipeline_result
    ):
        serial = influence_study(
            pipeline_result, world.config.horizon_days, min_events=10
        )
        faults = FaultInjector(
            [Fault("parallel:worker", action="kill", times=1)]
        )
        par = influence_study(
            pipeline_result,
            world.config.horizon_days,
            min_events=10,
            parallel=ParallelConfig(
                workers=2,
                backend="process",
                chaos=faults.parallel_directive,
            ),
        )
        # The ExecutionReport records the worker death and the rescues.
        assert par.execution is not None
        assert par.execution.retried, "killed worker's shards must be rescued"
        assert par.execution.complete
        assert any(
            "BrokenProcessPool" in error
            for shard in par.execution.shards
            for error in shard.errors
        )
        # ... and the salvaged study is bit-identical to the serial one.
        assert np.array_equal(
            par.total.expected_events, serial.total.expected_events
        )
        assert set(par.per_cluster) == set(serial.per_cluster)
        for key, matrices in serial.per_cluster.items():
            assert np.array_equal(
                par.per_cluster[key].expected_events, matrices.expected_events
            )
        assert par.failures == serial.failures

    def test_poison_associate_shard_is_explicit_gap(
        self, world, pipeline_result, monkeypatch
    ):
        # Permanently poison ONE community's association shard (and any
        # bisected prefix of it): that community quarantines as an
        # explicit gap — its posts stay unassociated, the stage report
        # names it — while every other community's associations stay
        # bit-identical to serial.  Thread backend so the monkeypatched
        # kernel is visible to the workers.
        import repro.core.runner as runner_mod

        target_community = world.posts[0].community
        target_hashes = np.array(
            [
                post.phash
                for post in world.posts
                if post.community == target_community
            ],
            dtype=np.uint64,
        )
        real_shard = runner_mod._associate_community_shard

        def poisoned_shard(hashes, medoid_by_global, theta):
            if np.array_equal(hashes, target_hashes[: hashes.size]):
                raise ValueError(f"poisoned shard for {target_community}")
            return real_shard(hashes, medoid_by_global, theta)

        monkeypatch.setattr(
            runner_mod, "_associate_community_shard", poisoned_shard
        )
        result = run_pipeline(
            world,
            PipelineConfig(),
            options=RunnerOptions(
                parallel=ParallelConfig(workers=2, backend="thread"),
                sleep=lambda s: None,
            ),
        )
        report = next(
            r for r in result.stage_reports if r.name == "associate"
        )
        assert f"associate:{target_community}" in report.quarantined
        assert report.status == "degraded"
        assert result.degraded
        assert report.execution is not None
        assert report.execution.quarantined  # the gap is on the record
        quarantined_shard = report.execution.shards[
            report.execution.quarantined[0]
        ]
        assert any(
            "poisoned shard" in error for error in quarantined_shard.errors
        )
        # Surviving communities: bit-identical to the serial association.
        serial = pipeline_result.occurrences
        keep = [
            row
            for row, post in enumerate(serial.posts)
            if post.community != target_community
        ]
        assert result.occurrences.posts == serial.posts.take(keep)
        assert np.array_equal(
            result.occurrences.cluster_indices,
            serial.cluster_indices[keep],
        )
        # The gap is explicit: no post of the target community sneaks in.
        assert all(
            post.community != target_community
            for post in result.occurrences.posts
        )
