"""Property tests: parallel runs are bit-identical to serial runs.

The contract for the parallel layer is *bit-identity*, not
"statistically the same": labels, annotations and associations
produced under ``--workers 4`` must equal the serial output exactly,
for both the thread and process backends.

The contract holds under *supervised* execution too: with chaos
injected (a process worker killed mid-fan-out) the run must still
complete bit-identical to the serial path, and a shard that fails the
whole rescue ladder must fail its stage exactly as the same fault does
serially, never degrade the result only when workers > 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Fault,
    FaultInjector,
    PipelineConfig,
    RunnerOptions,
    StageFailure,
    run_pipeline,
)
from repro.utils.parallel import ParallelConfig, PoisonShardError

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


class TestChaosRecoveryIdentity:
    """Kill a process worker mid-fan-out: the run completes bit-identical
    to the serial path.  Poison a shard: its stage fails, as serially."""

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

    def test_poison_associate_shard_fails_the_stage(self, world, monkeypatch):
        # Permanently poison the association shard holding one hash.
        # Under workers=2 it walks the whole rescue ladder and then
        # fails the associate stage, as a serial associate:all fault
        # does.  Thread backend so the monkeypatched kernel is visible
        # to the workers.
        import repro.annotation.association as association_mod

        poison = np.uint64(world.posts.phash[0])
        real_shard = association_mod._associate_unique_shard

        def poisoned_shard(unique, id_array, medoid_array, theta):
            if np.any(unique == poison):
                raise ValueError("poisoned association shard")
            return real_shard(unique, id_array, medoid_array, theta)

        monkeypatch.setattr(
            association_mod, "_associate_unique_shard", poisoned_shard
        )
        with pytest.raises(StageFailure) as parallel_failure:
            run_pipeline(
                world,
                PipelineConfig(),
                options=RunnerOptions(
                    parallel=ParallelConfig(workers=2, backend="thread"),
                    sleep=lambda s: None,
                ),
            )
        assert parallel_failure.value.stage == "associate"
        assert isinstance(parallel_failure.value.cause, PoisonShardError)
        assert any(
            "poisoned association shard" in error
            for error in parallel_failure.value.cause.errors
        )

        with pytest.raises(StageFailure) as serial_failure:
            run_pipeline(
                world,
                PipelineConfig(),
                options=RunnerOptions(
                    parallel=ParallelConfig(),
                    faults=FaultInjector([Fault("associate:all", RuntimeError)]),
                    sleep=lambda s: None,
                ),
            )
        assert serial_failure.value.stage == "associate"
