"""Unit tests for the resilient serving layer (:mod:`repro.service`)."""

import numpy as np
import pytest

from repro.annotation.matcher import ClusterAnnotation
from repro.communities.models import PostTable
from repro.core.faults import Fault, FaultInjector
from repro.core.monitor import MemeMonitor
from repro.core.results import ClusterKey, OccurrenceTable, PipelineResult
from repro.service import (
    AdmissionQueue,
    BreakerConfig,
    CircuitBreaker,
    IndexValidationError,
    MemeMatchService,
    ServiceConfig,
    VirtualClock,
    load_index,
    save_index,
    validate_result,
)
from repro.utils.retry import RetryPolicy, TransientError


def make_annotation(cluster_id, medoid, name, racist=False, politics=False):
    return ClusterAnnotation(
        cluster_id=cluster_id,
        medoid_hash=np.uint64(medoid),
        matches=(),
        representative=name,
        meme_names=frozenset({name}),
        people=frozenset(),
        cultures=frozenset(),
        is_racist=racist,
        is_politics=politics,
    )


def empty_occurrences():
    return OccurrenceTable(
        posts=PostTable.empty(),
        cluster_indices=np.empty(0, dtype=np.int64),
        entry_names=[],
        is_racist=np.empty(0, dtype=bool),
        is_politics=np.empty(0, dtype=bool),
    )


MEDOID_A = 0x0F0F_0F0F_0F0F_0F0F
MEDOID_B = 0xF0F0_F0F0_F0F0_F0F0  # 64 bits away from A


def tiny_result(names=("merchant", "pepe")) -> PipelineResult:
    """A two-cluster index; medoids are 64 bits apart (never confusable)."""
    keys = [ClusterKey("pol", 0), ClusterKey("gab", 1)]
    annotations = {
        keys[0]: make_annotation(0, MEDOID_A, names[0], racist=True),
        keys[1]: make_annotation(1, MEDOID_B, names[1], politics=True),
    }
    return PipelineResult(
        clusterings={},
        annotations=annotations,
        cluster_keys=keys,
        occurrences=empty_occurrences(),
    )


def identity_config(**overrides) -> ServiceConfig:
    """Queue unbounded, breaker off, no deadlines, no retries."""
    defaults = dict(
        max_queue_depth=None,
        breaker=None,
        retry=RetryPolicy(max_retries=0),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def make_service(result=None, **kwargs) -> MemeMatchService:
    return MemeMatchService(result if result is not None else tiny_result(), **kwargs)


class TestVirtualClock:
    def test_sleep_advances(self):
        clock = VirtualClock(10.0)
        clock.sleep(2.5)
        assert clock.time() == 12.5

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().sleep(-1.0)


class TestAdmissionQueue:
    def test_unbounded_admits_everything(self):
        queue = AdmissionQueue(max_depth=None)
        assert queue.offer_many(range(1000)) == (1000, None)
        assert len(queue) == 1000

    def test_watermark_sheds_deterministically(self):
        queue = AdmissionQueue(max_depth=10, shed_watermark=3)
        assert queue.offer_many(range(6)) == (3, "queue-watermark")
        assert len(queue) == 3

    def test_full_reason_at_hard_bound(self):
        queue = AdmissionQueue(max_depth=2)
        queue.offer_many([1, 2])
        assert queue.offer_many([3]) == (0, "queue-full")

    def test_depth_is_backpressure_signal(self):
        queue = AdmissionQueue(max_depth=5)
        queue.offer_many("ab")
        assert len(queue) == 2
        queue.pop(1)
        queue.offer_many("c")
        assert len(queue) == 2

    def test_fifo_pop_and_peak(self):
        queue = AdmissionQueue(max_depth=4)
        queue.offer_many("abc")
        assert queue.peak_depth == 3
        assert [queue.pop(1), queue.pop(1), queue.pop(1), queue.pop(1)] == [
            ["a"], ["b"], ["c"], [],
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=2, shed_watermark=3)
        with pytest.raises(ValueError):
            AdmissionQueue(shed_watermark=0)


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = VirtualClock()
        config = BreakerConfig(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            open_duration_s=kwargs.pop("open_duration_s", 10.0),
            probe_successes=kwargs.pop("probe_successes", 2),
        )
        return CircuitBreaker(config, clock=clock.time), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_cooldown_then_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(9.999)
        assert breaker.state == "open"
        clock.advance(0.001)
        assert breaker.state == "half-open" and breaker.allow()
        assert breaker.probing
        breaker.record_success()
        assert breaker.state == "half-open"  # one probe is not enough
        breaker.record_success()
        assert breaker.state == "closed" and not breaker.probing

    def test_probe_failure_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        clock.advance(10.0)  # cool-down restarts from the re-open
        assert breaker.state == "half-open"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(open_duration_s=-1.0)
        with pytest.raises(ValueError):
            BreakerConfig(probe_successes=0)


class TestServeBasics:
    def test_matching_verdict_flows_through(self):
        service = make_service(config=identity_config())
        [response] = service.serve([MEDOID_A])
        assert response.status == "ok"
        assert response.verdict.matched and response.verdict.is_racist
        assert response.verdict.entry == "merchant"
        assert response.attempts == 1

    def test_unmatched_is_still_ok(self):
        # 32 bits from either medoid: an honest no-match, not an error.
        probe = 0x00FF_00FF_00FF_00FF
        service = make_service(config=identity_config())
        [response] = service.serve([probe])
        assert response.status == "ok" and not response.verdict.matched

    @pytest.mark.parametrize(
        "poison",
        [
            -1, 2**64, "not-a-hash", 3.5, None, True, [1, 2],
            # Numeric text is a malformed log line, never parsed.
            "010", b"7", str(MEDOID_A),
        ],
    )
    def test_poison_inputs_dead_letter_instead_of_raising(self, poison):
        service = make_service(config=identity_config())
        [response] = service.serve([poison])
        assert response.status == "dead-lettered"
        assert "invalid-input" in response.reason
        assert service.stats.dead_lettered == 1
        assert service.stats.reconciles(pending=service.pending)
        [letter] = service.dead_letters
        assert letter.payload == repr(poison)

    def test_poison_does_not_poison_the_batch(self):
        service = make_service(config=identity_config())
        responses = service.serve([MEDOID_A, -7, MEDOID_B])
        assert [r.status for r in responses] == [
            "ok", "dead-lettered", "ok",
        ]
        assert responses[2].verdict.entry == "pepe"

    def test_integral_floats_dead_letter(self):
        # A float is never a pHash, as in MemeMonitor.classify_hash: 5.0
        # is not served as 5, and a float above 2**53 was already
        # rounded before it arrived.
        payloads = [5.0, float(2**53 + 1)]
        single = make_service(config=identity_config())
        windowed = make_service(config=identity_config(coalesce_window=4))
        windowed.submit_many([MEDOID_A, *payloads])
        for responses in (single.serve(payloads), windowed.drain()[1:]):
            assert [r.status for r in responses] == ["dead-lettered"] * 2
            assert all(r.reason.startswith("invalid-input") for r in responses)
        for service in (single, windowed):
            assert [d.payload for d in service.dead_letters] == [
                repr(p) for p in payloads
            ]

    def test_negative_int_in_an_int_burst_dead_letters(self, monkeypatch):
        # Before numpy 2, np.array([-1], dtype=np.uint64) wrapped to
        # 2**64 - 1 instead of raising; emulate that, so the burst's
        # one-call conversion cannot be what rejects the negative.
        real_array = np.array

        def wrapping_array(obj, *args, **kwargs):
            ints = isinstance(obj, list) and all(type(v) is int for v in obj)
            if kwargs.get("dtype") is np.uint64 and ints:
                obj = [v % 2**64 for v in obj]
            return real_array(obj, *args, **kwargs)

        monkeypatch.setattr(np, "array", wrapping_array)
        service = make_service(config=identity_config(coalesce_window=4))
        assert service.submit_many([MEDOID_A, -1, MEDOID_B]) == [None] * 3
        responses = service.drain()
        assert [r.status for r in responses] == ["ok", "dead-lettered", "ok"]
        assert responses[1].reason == (
            "invalid-input: pHash at index 0 (-1) outside the unsigned "
            "64-bit range [0, 2**64)"
        )
        [letter] = service.dead_letters
        assert letter.payload == "-1"

    def test_dead_letter_retention_is_bounded(self):
        service = make_service(
            config=identity_config(max_dead_letters=3)
        )
        service.serve([-i for i in range(1, 6)])
        assert service.stats.dead_lettered == 5  # counter keeps counting
        assert len(service.dead_letters) == 3  # retention bounded
        assert service.dead_letters[0].request_id == 2  # oldest dropped

    def test_submit_sheds_past_watermark(self):
        service = make_service(
            config=identity_config(max_queue_depth=4, shed_watermark=2)
        )
        immediates = [service.submit(MEDOID_A) for _ in range(5)]
        shed = [r for r in immediates if r is not None]
        assert len(shed) == 3
        assert all(r.status == "shed" for r in shed)
        assert shed[0].reason == "queue-watermark"
        assert service.pending == 2
        drained = service.drain()
        assert len(drained) == 2
        assert service.stats.reconciles(pending=0)

    def test_health_snapshot(self):
        service = make_service()
        service.serve([MEDOID_A, -1])
        health = service.health()
        assert health["breaker"] == "closed"
        assert health["index_clusters"] == 2
        assert health["conserved"] is True
        assert health["stats"]["submitted"] == 2
        assert health["stats"]["served"] == 1
        assert health["stats"]["dead_lettered"] == 1

    def test_request_ids_are_unique_and_monotonic(self):
        service = make_service(config=identity_config())
        responses = service.serve([MEDOID_A] * 5)
        assert [r.request_id for r in responses] == list(range(5))


class TestDeadlines:
    def make_service_with_clock(self, **config_overrides):
        clock = VirtualClock()
        config = identity_config(**config_overrides)
        service = make_service(
            config=config, clock=clock.time, sleep=clock.sleep
        )
        return service, clock

    def test_expired_in_queue(self):
        service, clock = self.make_service_with_clock(default_deadline_s=1.0)
        assert service.submit(MEDOID_A) is None
        clock.advance(1.5)  # queue wait eats the whole budget
        [response] = service.drain()
        assert response.status == "timed-out"
        assert response.reason == "expired-in-queue"
        assert service.stats.timed_out == 1
        assert service.stats.reconciles(pending=0)

    def test_deadline_exhausted_mid_retry(self):
        clock = VirtualClock()
        faults = FaultInjector([Fault("serve:classify", TransientError, times=9)])
        service = make_service(
            config=identity_config(
                default_deadline_s=0.5,
                retry=RetryPolicy(max_retries=5, base_delay=0.3, backoff=2.0),
            ),
            faults=faults,
            clock=clock.time,
            sleep=clock.sleep,
        )
        [response] = service.serve([MEDOID_A])
        assert response.status == "timed-out"
        assert response.attempts >= 2  # it did try before giving up
        assert service.stats.timed_out == 1
        assert service.stats.reconciles(pending=0)

    def test_within_deadline_is_served(self):
        service, clock = self.make_service_with_clock(default_deadline_s=5.0)
        assert service.submit(MEDOID_A) is None
        clock.advance(1.0)
        [response] = service.drain()
        assert response.status == "ok"

    def test_per_request_deadline_overrides_default(self):
        service, clock = self.make_service_with_clock(default_deadline_s=100.0)
        assert service.submit(MEDOID_A, deadline_s=0.5) is None
        clock.advance(1.0)
        [response] = service.drain()
        assert response.status == "timed-out"


class TestRetryPath:
    def test_transient_fault_retried_to_success(self):
        clock = VirtualClock()
        faults = FaultInjector([Fault("serve:classify", TransientError, times=2)])
        service = make_service(
            config=identity_config(
                retry=RetryPolicy(max_retries=3, base_delay=0.01)
            ),
            faults=faults,
            clock=clock.time,
            sleep=clock.sleep,
        )
        [response] = service.serve([MEDOID_A])
        assert response.status == "ok"
        assert response.attempts == 3
        assert service.stats.retries == 2

    def test_retries_exhausted_dead_letters(self):
        clock = VirtualClock()
        faults = FaultInjector([Fault("serve:classify", TransientError, times=9)])
        service = make_service(
            config=identity_config(
                retry=RetryPolicy(max_retries=1, base_delay=0.01)
            ),
            faults=faults,
            clock=clock.time,
            sleep=clock.sleep,
        )
        [response] = service.serve([MEDOID_A])
        assert response.status == "dead-lettered"
        assert "classify-failed" in response.reason
        assert service.stats.reconciles(pending=0)


class TestHotReload:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "index.ckpt"
        save_index(tiny_result(), path)
        loaded = load_index(path)
        assert loaded.cluster_keys == tiny_result().cluster_keys

    def test_reload_swaps_index(self, tmp_path):
        path = tmp_path / "index.ckpt"
        save_index(tiny_result(names=("merchant-v2", "pepe-v2")), path)
        service = make_service(config=identity_config())
        report = service.reload_index(path)
        assert report.ok and report.error is None
        assert report.n_clusters_before == 2 and report.n_clusters_after == 2
        [response] = service.serve([MEDOID_A])
        assert response.verdict.entry == "merchant-v2"
        assert service.stats.reloads == 1

    def test_corrupt_checkpoint_rolls_back(self, tmp_path):
        from repro.core.faults import corrupt_file

        path = tmp_path / "index.ckpt"
        save_index(tiny_result(names=("new-a", "new-b")), path)
        corrupt_file(path, mode="flip")
        service = make_service(config=identity_config())
        report = service.reload_index(path)
        assert not report.ok and "CheckpointError" in report.error
        assert service.stats.reload_failures == 1
        # the old index keeps serving
        [response] = service.serve([MEDOID_A])
        assert response.status == "ok" and response.verdict.entry == "merchant"

    def test_stale_fingerprint_rolls_back(self, tmp_path):
        from repro.utils.io import save_checkpoint

        path = tmp_path / "index.ckpt"
        save_checkpoint(
            path, {"result": tiny_result()}, fingerprint="some-other-run|v0"
        )
        service = make_service(config=identity_config())
        report = service.reload_index(path)
        assert not report.ok and "StaleCheckpointError" in report.error
        assert service.index_size == 2

    def test_missing_checkpoint_rolls_back(self, tmp_path):
        service = make_service(config=identity_config())
        report = service.reload_index(tmp_path / "nope.ckpt")
        assert not report.ok
        assert service.stats.reload_failures == 1

    def test_unservable_payload_rejected(self, tmp_path):
        from repro.service.reload import INDEX_FINGERPRINT
        from repro.utils.io import save_checkpoint

        path = tmp_path / "index.ckpt"
        save_checkpoint(
            path, {"result": "not a result"}, fingerprint=INDEX_FINGERPRINT
        )
        with pytest.raises(IndexValidationError):
            load_index(path)

    def test_validate_result_rejects_dangling_key(self):
        result = tiny_result()
        broken = PipelineResult(
            clusterings={},
            annotations={},
            cluster_keys=result.cluster_keys,
            occurrences=empty_occurrences(),
        )
        with pytest.raises(IndexValidationError, match="no annotation"):
            validate_result(broken)


class TestBitIdentityWithBareMonitor:
    """Acceptance: queue unbounded + breaker off + no faults == classify_batch."""

    def test_identity_on_session_pipeline(self, pipeline_result):
        hashes = np.array(
            [post.phash for post in pipeline_result.occurrences.posts[:200]],
            dtype=np.uint64,
        )
        if hashes.size == 0:
            pytest.skip("no occurrences at this seed")
        monitor = MemeMonitor(pipeline_result)
        expected = monitor.classify_batch(hashes)
        service = MemeMatchService(pipeline_result, config=identity_config())
        responses = service.serve(int(h) for h in hashes)
        assert [r.status for r in responses] == ["ok"] * len(expected)
        assert [r.verdict for r in responses] == expected
        assert service.stats.served == len(expected)
        assert service.stats.reconciles(pending=0)

    def test_identity_includes_unmatched_and_duplicates(self, pipeline_result):
        rng = np.random.default_rng(5)
        random_hashes = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        hashes = np.concatenate([random_hashes, random_hashes[:10]])
        monitor = MemeMonitor(pipeline_result)
        expected = monitor.classify_batch(hashes)
        service = MemeMatchService(pipeline_result, config=identity_config())
        responses = service.serve(int(h) for h in hashes)
        assert [r.verdict for r in responses] == expected


class TestIndexCache:
    def test_repeat_load_hits_memory_tier(self, tmp_path):
        from repro.core.cache import ContentCache

        path = tmp_path / "index.ckpt"
        save_index(tiny_result(), path)
        cache = ContentCache()
        first = load_index(path, cache=cache)
        second = load_index(path, cache=cache)
        assert second is first  # the very object, no re-unpickle
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        # Memory tier only: no entry files written next to anything.
        assert cache.entries() == []

    def test_changed_file_misses_by_content(self, tmp_path):
        from repro.core.cache import ContentCache

        path = tmp_path / "index.ckpt"
        save_index(tiny_result(), path)
        cache = ContentCache()
        load_index(path, cache=cache)
        save_index(tiny_result(names=("new-a", "new-b")), path)
        swapped = load_index(path, cache=cache)
        assert swapped.annotations[ClusterKey("pol", 0)].representative == "new-a"
        assert cache.stats.misses == 2

    def test_corruption_detected_before_cache_consulted(self, tmp_path):
        from repro.core.cache import ContentCache
        from repro.core.faults import corrupt_file
        from repro.utils.io import CheckpointError

        path = tmp_path / "index.ckpt"
        save_index(tiny_result(), path)
        cache = ContentCache()
        load_index(path, cache=cache)
        corrupt_file(path, mode="flip")
        # Corrupt bytes make a different key -> miss -> the container's
        # digest check raises exactly as it would without a cache.
        with pytest.raises(CheckpointError):
            load_index(path, cache=cache)

    def test_service_reload_uses_the_cache(self, tmp_path):
        from repro.core.cache import ContentCache

        path = tmp_path / "index.ckpt"
        save_index(tiny_result(names=("merchant-v2", "pepe-v2")), path)
        cache = ContentCache()
        service = make_service(config=identity_config(), cache=cache)
        assert service.reload_index(path).ok
        assert service.reload_index(path).ok
        assert cache.stats.hits == 1
        [response] = service.serve([MEDOID_A])
        assert response.verdict.entry == "merchant-v2"


class TestDeadLetterEviction:
    def test_eviction_is_counted_not_silent(self):
        service = make_service(config=identity_config(max_dead_letters=3))
        service.serve([-i for i in range(1, 6)])  # 5 poison inputs
        assert service.stats.dead_lettered == 5
        assert len(service.dead_letters) == 3
        # The two silent drops are on the record now.
        assert service.stats.dead_letters_evicted == 2
        health = service.health()
        assert health["dead_letters"] == 3
        assert health["dead_letters_evicted"] == 2
        assert health["stats"]["dead_letters_evicted"] == 2

    def test_no_eviction_within_bound(self):
        service = make_service(config=identity_config(max_dead_letters=8))
        service.serve([-1, -2])
        assert service.stats.dead_letters_evicted == 0

    def test_window_of_poison_evicts_exactly(self):
        service = make_service(
            config=identity_config(max_dead_letters=3, coalesce_window=8)
        )
        service.submit_many([-i for i in range(1, 8)])
        service.drain()
        assert service.stats.dead_letters_evicted == 4
        assert [d.request_id for d in service.dead_letters] == [4, 5, 6]

    def test_zero_retention_keeps_nothing_and_counts_every_drop(self):
        service = make_service(config=identity_config(max_dead_letters=0))
        service.serve([-1, "010", MEDOID_A])
        assert len(service.dead_letters) == 0
        assert service.stats.dead_lettered == 2
        assert service.stats.dead_letters_evicted == 2

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError, match="max_dead_letters"):
            ServiceConfig(max_dead_letters=-1)


class TestDeadlineValidation:
    BAD = [float("nan"), -0.5, float("-inf")]

    @pytest.mark.parametrize("bad", BAD)
    def test_config_rejects_nan_and_negative_default(self, bad):
        with pytest.raises(ValueError, match="deadline_s"):
            ServiceConfig(default_deadline_s=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_submit_rejects_nan_and_negative_deadline(self, bad):
        service = make_service(config=identity_config())
        with pytest.raises(ValueError, match="deadline_s"):
            service.submit(MEDOID_A, deadline_s=bad)
        with pytest.raises(ValueError, match="deadline_s"):
            service.submit_many([MEDOID_A, MEDOID_B], deadline_s=bad)
        # A rejected call admits nothing and leaves the books balanced.
        assert service.stats.submitted == 0 and service.pending == 0

    def test_zero_and_infinite_deadlines_accepted(self):
        clock = VirtualClock()
        service = make_service(
            config=identity_config(default_deadline_s=float("inf")),
            clock=clock.time,
            sleep=clock.sleep,
        )
        service.submit(MEDOID_A)
        service.submit(MEDOID_B, deadline_s=0.0)
        clock.advance(1e9)
        assert [r.status for r in service.drain()] == ["ok", "timed-out"]
