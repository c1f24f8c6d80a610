"""Tests for the real-time meme monitor."""

import numpy as np
import pytest

from repro.communities.models import PostTable
from repro.core import monitor as monitor_module
from repro.core.monitor import MemeMonitor, MonitorVerdict
from repro.core.results import (
    ClusterKey,
    OccurrenceTable,
    PipelineResult,
)


def empty_occurrences():
    return OccurrenceTable(
        posts=PostTable.empty(),
        cluster_indices=np.empty(0, dtype=np.int64),
        entry_names=[],
        is_racist=np.empty(0, dtype=bool),
        is_politics=np.empty(0, dtype=bool),
    )


class TestMonitorOnSessionWorld:
    @pytest.fixture(scope="class")
    def monitor(self, pipeline_result):
        return MemeMonitor(pipeline_result)

    def test_knows_all_annotated_clusters(self, monitor, pipeline_result):
        assert len(monitor) == len(pipeline_result.cluster_keys)

    def test_medoids_classify_to_their_own_cluster(self, monitor, pipeline_result):
        for key in pipeline_result.cluster_keys[:20]:
            medoid = pipeline_result.annotations[key].medoid_hash
            verdict = monitor.classify_hash(medoid)
            assert verdict.matched
            assert verdict.distance == 0
            assert verdict.cluster == key

    def test_occurrence_posts_match(self, monitor, pipeline_result):
        posts = pipeline_result.occurrences.posts[:100]
        verdicts = monitor.classify_batch(
            np.array([post.phash for post in posts], dtype=np.uint64)
        )
        assert all(v.matched for v in verdicts)

    def test_racist_memes_are_flagged(self, monitor, world, pipeline_result):
        merchant_posts = [
            post
            for post, name in zip(
                pipeline_result.occurrences.posts,
                pipeline_result.occurrences.entry_names,
            )
            if name == "happy-merchant"
        ]
        if not merchant_posts:
            pytest.skip("no happy-merchant occurrences at this seed")
        verdict = monitor.classify_hash(merchant_posts[0].phash)
        assert verdict.matched and verdict.is_racist

    def test_random_hash_unmatched(self, monitor):
        verdict = monitor.classify_hash(np.uint64(0xA5A5A5A5A5A5A5A5))
        # A random hash is overwhelmingly unlikely to be within 8 of a
        # medoid; if this flakes the seed changed the world radically.
        assert not verdict.matched
        assert verdict.distance == -1

    def test_classify_image_path(self, monitor, world):
        entry = world.catalog[0]
        image = world.library[entry.name].render(64)
        verdict = monitor.classify_image(image)
        assert isinstance(verdict, MonitorVerdict)

    def test_flagged_entries(self, monitor):
        flags = monitor.flagged_entries()
        assert flags
        assert all(
            isinstance(racist, bool) and isinstance(politics, bool)
            for racist, politics in flags.values()
        )

    def test_batch_memoisation_consistent(self, monitor, pipeline_result):
        value = pipeline_result.annotations[
            pipeline_result.cluster_keys[0]
        ].medoid_hash
        hashes = np.array([value] * 5, dtype=np.uint64)
        verdicts = monitor.classify_batch(hashes)
        assert all(v == verdicts[0] for v in verdicts)

    def test_batch_equals_single_element_for_element(
        self, monitor, pipeline_result
    ):
        # The dense batch kernel against the per-hash MIH path: every
        # element's verdict — match, cluster, distance, tie-break, and
        # flags — must be the one classify_hash returns.  Mix exact
        # medoids, near-medoid perturbations (inside and outside θ),
        # random probes, and duplicates.
        medoids = np.array(
            [
                pipeline_result.annotations[key].medoid_hash
                for key in pipeline_result.cluster_keys
            ],
            dtype=np.uint64,
        )
        rng = np.random.default_rng(7)
        near = []
        for medoid in medoids[:16]:
            bits = rng.choice(64, size=rng.integers(1, 12), replace=False)
            flipped = int(medoid)
            for bit in bits:
                flipped ^= 1 << int(bit)
            near.append(flipped)
        probes = rng.integers(0, 2**63, size=64, dtype=np.int64).astype(np.uint64)
        corpus = np.concatenate(
            [
                medoids,
                np.array(near, dtype=np.uint64),
                probes,
                medoids[:8],  # duplicates exercise the memoised scatter
            ]
        )
        batch = monitor.classify_batch(corpus)
        singles = [monitor.classify_hash(value) for value in corpus]
        assert batch == singles

    @pytest.mark.parametrize(
        "size", [1, 17, monitor_module._UNIQUE_MIN - 1, monitor_module._UNIQUE_MIN]
    )
    def test_memoised_verdicts_equal_fresh_ones(self, pipeline_result, size):
        # Below and above the size where np.unique starts, each verdict
        # equals one built from its nearest medoid, and equal (cluster,
        # distance) pairs share one verdict object across calls.
        from repro.hashing import nearest_medoid

        monitor = MemeMonitor(pipeline_result)
        keys = pipeline_result.cluster_keys
        medoids = np.array(
            [pipeline_result.annotations[key].medoid_hash for key in keys],
            dtype=np.uint64,
        )
        rng = np.random.default_rng(size)
        near = medoids[rng.integers(0, medoids.size, size)] ^ (
            np.uint64(1) << rng.integers(0, 64, size).astype(np.uint64)
        )
        far = rng.integers(0, 2**64, size, dtype=np.uint64)
        hashes = np.where(rng.random(size) < 0.6, near, far)
        verdicts = monitor.classify_batch(hashes)
        position, distance = nearest_medoid(hashes, medoids, monitor.theta)
        for verdict, p, d in zip(verdicts, position.tolist(), distance.tolist()):
            if p < 0:
                assert verdict == MonitorVerdict.no_match()
                continue
            annotation = pipeline_result.annotations[keys[p]]
            assert verdict == MonitorVerdict(
                True,
                keys[p],
                annotation.representative,
                d,
                annotation.is_racist,
                annotation.is_politics,
            )
        again = monitor.classify_batch(hashes[::-1])
        assert all(a is b for a, b in zip(verdicts, again[::-1]))


class TestEmptyMonitor:
    def test_no_clusters_never_matches(self):
        result = PipelineResult(
            clusterings={},
            annotations={},
            cluster_keys=[],
            occurrences=empty_occurrences(),
        )
        monitor = MemeMonitor(result)
        assert len(monitor) == 0
        assert not monitor.classify_hash(42).matched

    def test_theta_validation(self):
        result = PipelineResult(
            clusterings={},
            annotations={},
            cluster_keys=[],
            occurrences=empty_occurrences(),
        )
        with pytest.raises(ValueError):
            MemeMonitor(result, theta=-1)


class TestInputHardening:
    @pytest.fixture(scope="class")
    def monitor(self, pipeline_result):
        return MemeMonitor(pipeline_result)

    def test_negative_hash_rejected(self, monitor):
        with pytest.raises(ValueError, match="64-bit"):
            monitor.classify_hash(-1)

    def test_overflowing_hash_rejected(self, monitor):
        with pytest.raises(ValueError, match="64-bit"):
            monitor.classify_hash(2**64)

    def test_boundary_hashes_accepted(self, monitor):
        assert isinstance(monitor.classify_hash(0), MonitorVerdict)
        assert isinstance(monitor.classify_hash(2**64 - 1), MonitorVerdict)
        assert isinstance(
            monitor.classify_hash(np.uint64(2**64 - 1)), MonitorVerdict
        )

    def test_non_integer_hash_rejected(self, monitor, pipeline_result):
        with pytest.raises(TypeError):
            monitor.classify_hash("deadbeef")
        with pytest.raises(TypeError):
            monitor.classify_hash(None)
        # Floats and bools are rejected, never truncated or widened, as
        # classify_batch rejects them.
        medoid = pipeline_result.annotations[
            pipeline_result.cluster_keys[0]
        ].medoid_hash
        for value in (5.5, True, float(medoid)):
            with pytest.raises(TypeError):
                monitor.classify_hash(value)
            with pytest.raises(TypeError):
                monitor.classify_batch([value])
        # Numeric text is rejected, never parsed.
        for text in ("5", b"5", bytearray(b"5")):
            with pytest.raises(TypeError):
                monitor.classify_hash(text)

    def test_empty_raster_rejected(self, monitor):
        with pytest.raises(ValueError, match="empty raster"):
            monitor.classify_image(np.empty((0, 0)))
        with pytest.raises(ValueError, match="empty raster"):
            monitor.classify_image(np.empty((0, 64)))

    def test_wrong_ndim_raster_rejected(self, monitor):
        with pytest.raises(ValueError, match="ndim=1"):
            monitor.classify_image(np.zeros(64))
        with pytest.raises(ValueError, match="ndim=4"):
            monitor.classify_image(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="ndim=0"):
            monitor.classify_image(np.float64(0.5))

    def test_color_raster_accepted(self, monitor):
        verdict = monitor.classify_image(np.zeros((32, 32, 3)))
        assert isinstance(verdict, MonitorVerdict)


class TestClassifyBatchValidation:
    """Regression: batch inputs must never wrap modulo 2**64 silently."""

    @pytest.fixture(scope="class")
    def monitor(self, pipeline_result):
        return MemeMonitor(pipeline_result)

    def test_negative_element_rejected_with_index(self, monitor):
        with pytest.raises(ValueError, match="index 1"):
            monitor.classify_batch([5, -1, 7])

    def test_oversized_python_int_rejected(self, monitor):
        with pytest.raises(ValueError, match="index 0"):
            monitor.classify_batch([2**64])

    def test_no_wraparound_regression(self, monitor, pipeline_result):
        # -1 wraps to 2**64 - 1 under a blind astype(uint64); it must be
        # rejected, not classified as whatever that garbage hash matches.
        with pytest.raises(ValueError):
            monitor.classify_batch(np.array([-1], dtype=np.int64))
        # ... while the legitimate wrapped value still classifies fine.
        verdict = monitor.classify_hash(2**64 - 1)
        assert isinstance(verdict, MonitorVerdict)

    def test_float_dtype_rejected(self, monitor):
        with pytest.raises(TypeError, match="integer"):
            monitor.classify_batch(np.array([1.5, 2.0]))

    def test_mixed_magnitude_int_list_accepted(self, monitor):
        # numpy promotes [small, >=2**63] python-int lists to float64;
        # the validator must re-coerce exactly, not reject them.
        hashes = [5, 2**63, 2**64 - 1]
        batch = monitor.classify_batch(hashes)
        singles = [monitor.classify_hash(h) for h in hashes]
        assert batch == singles

    def test_float_list_rejected(self, monitor):
        with pytest.raises(TypeError, match="integer"):
            monitor.classify_batch([1.5, 2.0])

    def test_object_array_with_non_integer_rejected(self, monitor):
        with pytest.raises(TypeError, match="index 1"):
            monitor.classify_batch(np.array([3, "junk"], dtype=object))

    def test_bool_array_rejected(self, monitor):
        with pytest.raises(TypeError):
            monitor.classify_batch(np.array([True, False]))

    def test_two_dimensional_rejected(self, monitor):
        with pytest.raises(ValueError, match="1-D"):
            monitor.classify_batch(np.zeros((2, 2), dtype=np.uint64))

    def test_empty_batch_ok(self, monitor):
        assert monitor.classify_batch([]) == []
        assert monitor.classify_batch(np.empty(0, dtype=np.uint64)) == []

    def test_signed_and_object_batches_match_uint64(self, monitor):
        values = [0, 1, 2**40, 2**63 - 1]
        expected = monitor.classify_batch(np.array(values, dtype=np.uint64))
        assert monitor.classify_batch(np.array(values, dtype=np.int64)) == expected
        assert monitor.classify_batch(np.array(values, dtype=object)) == expected
        assert monitor.classify_batch(values) == expected

    def test_object_array_boundary_values(self, monitor):
        verdicts = monitor.classify_batch(np.array([0, 2**64 - 1], dtype=object))
        assert len(verdicts) == 2
