"""Window invariance: a drain window of W serves like W windows of one.

Every drain serves windows of up to :attr:`ServiceConfig.coalesce_window`
requests through one ``classify_batch`` call, and the default window of
one is per-request serving.  The contract under test: every
per-request outcome (verdict, status, shed/dead-letter reason) at
window W is the one window 1 produces, with conservation
(``submitted == served + shed + timed_out + dead_lettered + pending``)
holding at every drain boundary, including under mid-drain faults and
mixed per-request deadlines.
"""

import math

import numpy as np
import pytest

from repro.core.faults import Fault, FaultInjector
from repro.service import (
    AdmissionQueue,
    BreakerConfig,
    MemeMatchService,
    ServiceConfig,
    VirtualClock,
)
from repro.utils.retry import RetryPolicy, TransientError

from tests.test_service import (
    MEDOID_A,
    MEDOID_B,
    identity_config,
    tiny_result,
)

WINDOWS = (2, 3, 8)


def coalesced_config(window=8, **overrides):
    return identity_config(coalesce_window=window, **overrides)


def make_pair(window, **overrides):
    """(window of one, window ``window``) services over the same index."""
    single = MemeMatchService(tiny_result(), config=identity_config(**overrides))
    windowed = MemeMatchService(
        tiny_result(), config=coalesced_config(window, **overrides)
    )
    return single, windowed


MIXED_PAYLOADS = [
    MEDOID_A,
    MEDOID_B,
    MEDOID_A ^ 0b11,  # within theta of A
    0x1234_5678_9ABC_DEF0,  # matches nothing
    MEDOID_A,  # duplicate: memoised on the batch path
    np.uint64(MEDOID_B),
]


def outcome(response):
    return (
        response.status,
        response.verdict,
        response.reason,
    )


class SequentialOffers:
    """The per-item admission rule, the oracle for ``offer_many``.

    Admit while depth is below ``max_depth`` and the shed watermark;
    otherwise shed with the reason of the bound that was hit.
    """

    def __init__(self, max_depth=None, shed_watermark=None):
        self.max_depth = max_depth
        self.shed_watermark = (
            shed_watermark if shed_watermark is not None else max_depth
        )
        self.items = []
        self.peak_depth = 0

    def offer(self, item):
        """``None`` when ``item`` is admitted, else its shed reason."""
        depth = len(self.items)
        if self.max_depth is not None and depth >= self.max_depth:
            return "queue-full"
        if self.shed_watermark is not None and depth >= self.shed_watermark:
            return "queue-watermark"
        self.items.append(item)
        self.peak_depth = max(self.peak_depth, depth + 1)
        return None

    def offer_each(self, items):
        """Offer ``items`` one by one; the result in ``offer_many``'s shape.

        Asserts on the way what lets a burst collapse to that shape:
        the admitted items form a prefix and the shed ones share one
        reason.
        """
        reasons = [self.offer(item) for item in items]
        admitted = reasons.count(None)
        assert reasons[:admitted] == [None] * admitted
        assert len(set(reasons[admitted:])) <= 1
        return admitted, (reasons[admitted] if reasons[admitted:] else None)


def drained(queue):
    return [item for part in queue.pop(len(queue)) for item in part]


class TestOfferMany:
    """offer_many must admit and shed exactly as per-item offers do."""

    @pytest.mark.parametrize(
        "kwargs, n_items, prefill",
        [
            (dict(max_depth=None), 12, 0),
            (dict(max_depth=10, shed_watermark=3), 8, 0),
            (dict(max_depth=4), 8, 0),
            (dict(max_depth=6, shed_watermark=6), 9, 2),
            (dict(max_depth=5, shed_watermark=2), 4, 2),
            (dict(max_depth=3), 5, 3),
        ],
    )
    def test_matches_sequential_offers(self, kwargs, n_items, prefill):
        bulk = AdmissionQueue(**kwargs)
        loop = SequentialOffers(**kwargs)
        prefix = [("pre", i) for i in range(prefill)]
        assert bulk.offer_many(prefix) == loop.offer_each(prefix)
        items = [("item", i) for i in range(n_items)]
        assert bulk.offer_many(items) == loop.offer_each(items)
        assert len(bulk) == len(loop.items)
        assert bulk.peak_depth == loop.peak_depth
        assert drained(bulk) == loop.items

    def test_bursts_between_pops_match_sequential_offers(self):
        # The stream ingester's pattern: one burst per ingest call,
        # then a partial drain before the next burst arrives.
        bulk = AdmissionQueue(max_depth=7, shed_watermark=5)
        loop = SequentialOffers(max_depth=7, shed_watermark=5)
        for burst, pops in [(4, 1), (3, 3), (6, 0), (2, 5)]:
            items = [(burst, pops, i) for i in range(burst)]
            assert bulk.offer_many(items) == loop.offer_each(items)
            for _ in range(pops):
                [part] = bulk.pop(1)
                assert list(part) == [loop.items.pop(0)]
        assert bulk.peak_depth == loop.peak_depth
        assert drained(bulk) == loop.items

    def test_pop_spans_and_splits_bursts(self):
        queue = AdmissionQueue()
        queue.offer_many(range(3))
        queue.offer_many(range(10, 14))
        assert queue.pop(5) == [range(3), range(10, 12)]
        assert len(queue) == 2
        assert queue.pop(5) == [range(12, 14)]
        assert queue.pop(5) == [] and len(queue) == 0

    def test_empty_burst(self):
        queue = AdmissionQueue(max_depth=2)
        assert queue.offer_many([]) == (0, None)


class TestSubmitMany:
    def test_aligned_shed_responses(self):
        service = MemeMatchService(
            tiny_result(),
            config=identity_config(max_queue_depth=8, shed_watermark=3),
        )
        out = service.submit_many(MIXED_PAYLOADS)
        assert [r is None for r in out] == [True] * 3 + [False] * 3
        assert all(r.status == "shed" for r in out[3:])
        assert all(r.reason == "queue-watermark" for r in out[3:])
        assert service.stats.submitted == 6
        assert service.stats.admitted == 3
        assert service.stats.shed == 3
        assert service.stats.reconciles(pending=service.pending)

    def test_ids_keep_increasing_past_submit(self):
        service = MemeMatchService(tiny_result(), config=identity_config())
        service.submit(MEDOID_A)
        out = service.submit_many([MEDOID_B, MEDOID_A])
        assert out == [None, None]
        responses = service.drain()
        assert [r.request_id for r in responses] == [0, 1, 2]


class TestCoalescedIdentity:
    def test_mixed_batch_outcomes_identical(self):
        for window in WINDOWS:
            single, windowed = make_pair(window)
            expected = single.serve(MIXED_PAYLOADS)
            assert all(
                r is None for r in windowed.submit_many(MIXED_PAYLOADS)
            )
            got = windowed.drain()
            assert [outcome(r) for r in got] == [
                outcome(r) for r in expected
            ], window
            assert [r.request_id for r in got] == [
                r.request_id for r in expected
            ]
            assert windowed.stats.as_dict() == single.stats.as_dict()
            assert windowed.stats.reconciles(pending=0)

    def test_poison_fallback_reasons_identical(self):
        # Poison anywhere in a window is dead-lettered with the reason
        # a window of one gives it, including integral floats and
        # numeric text.
        payloads = [
            MEDOID_A,
            "not-a-hash",
            -1,
            float(5.0),  # integral float: dead-lettered like any float
            2**64,  # out of range
            MEDOID_B,
            3.25,  # non-integral float
            "010",
            b"7",
        ]
        for window in WINDOWS:
            single, windowed = make_pair(window)
            expected = single.serve(payloads)
            windowed.submit_many(payloads)
            got = windowed.drain()
            assert [outcome(r) for r in got] == [
                outcome(r) for r in expected
            ], window
            assert windowed.stats.dead_lettered == single.stats.dead_lettered
            assert [d.reason for d in windowed.dead_letters] == [
                d.reason for d in single.dead_letters
            ]
            assert windowed.stats.reconciles(pending=0)

    def test_windows_partition_the_queue(self):
        for window in WINDOWS:
            service = MemeMatchService(
                tiny_result(), config=coalesced_config(window)
            )
            inner = service._monitor.classify_batch
            sizes = []

            def counting_classify(values, inner=inner, sizes=sizes):
                sizes.append(len(values))
                return inner(values)

            service._monitor.classify_batch = counting_classify
            payloads = [MEDOID_A, MEDOID_B] * 5
            service.submit_many(payloads)
            responses = service.drain()
            assert len(responses) == 10
            assert all(r.status == "ok" for r in responses)
            assert service.stats.served == 10
            # One classify call per window of at most `window` requests.
            assert len(sizes) == math.ceil(10 / window)
            assert sum(sizes) == 10 and max(sizes) <= window

    def test_max_requests_respected(self):
        for window in WINDOWS:
            service = MemeMatchService(
                tiny_result(), config=coalesced_config(window)
            )
            service.submit_many([MEDOID_A] * 10)
            first = service.drain(max_requests=6)
            assert len(first) == 6
            assert service.pending == 4
            assert service.stats.reconciles(pending=4)
            rest = service.drain()
            assert len(rest) == 4


class TestMixedDeadlines:
    def scenario(self, config):
        """Already-expired, nearly-expired, and fresh requests in one drain."""
        clock = VirtualClock()
        service = MemeMatchService(
            tiny_result(), config=config, clock=clock.time, sleep=clock.sleep
        )
        # Request 0 expires while queued; 1 is nearly expired but
        # still inside its budget at drain time; 2 has no deadline.
        service.submit(MEDOID_A, deadline_s=1.0)
        service.submit(MEDOID_B, deadline_s=2.5)
        service.submit(MEDOID_A ^ 0b1)
        clock.advance(2.0)
        return service, service.drain()

    def test_outcomes_match_per_request_path(self):
        single, single_responses = self.scenario(identity_config())
        for window in WINDOWS:
            windowed, windowed_responses = self.scenario(
                coalesced_config(window)
            )
            assert [outcome(r) for r in windowed_responses] == [
                outcome(r) for r in single_responses
            ], window
            assert windowed_responses[0].status == "timed-out"
            assert windowed_responses[0].reason == "expired-in-queue"
            assert [r.status for r in windowed_responses[1:]] == ["ok", "ok"]
            assert windowed.stats.as_dict() == single.stats.as_dict()
            assert windowed.stats.reconciles(pending=0)

    def test_window_of_one_rechecks_deadline_after_classify(self):
        # A classify that returns after the request's deadline times the
        # request out at window one too, as it does at every window.
        clock = VirtualClock()
        service = MemeMatchService(
            tiny_result(),
            config=identity_config(),
            clock=clock.time,
            sleep=clock.sleep,
        )
        inner = service._monitor.classify_batch

        def slow_classify(values):
            clock.advance(1.0)
            return inner(values)

        service._monitor.classify_batch = slow_classify
        service.submit(MEDOID_A, deadline_s=0.5)
        service.submit(MEDOID_B, deadline_s=10.0)
        responses = service.drain()
        assert [r.status for r in responses] == ["timed-out", "ok"]
        assert responses[0].reason == "expired-in-batch"
        assert responses[0].attempts == 1
        assert service.stats.reconciles(pending=0)

    def test_deadline_expiring_mid_batch_times_out_individually(self):
        clock = VirtualClock()
        service = MemeMatchService(
            tiny_result(),
            config=coalesced_config(),
            clock=clock.time,
            sleep=clock.sleep,
        )
        # Classification itself takes 1.0s of virtual time: request 1's
        # budget covers the queue wait but not the batch.
        inner = service._monitor.classify_batch

        def slow_classify(values):
            clock.advance(1.0)
            return inner(values)

        service._monitor.classify_batch = slow_classify
        service.submit(MEDOID_A, deadline_s=10.0)
        service.submit(MEDOID_B, deadline_s=0.5)
        service.submit(MEDOID_A)
        responses = service.drain()
        assert [r.status for r in responses] == ["ok", "timed-out", "ok"]
        assert responses[1].reason == "expired-in-batch"
        assert service.stats.timed_out == 1
        assert service.stats.served == 2
        assert service.stats.reconciles(pending=0)


class TestFaultsMidDrain:
    def test_transient_faults_retry_then_serve(self):
        faults = FaultInjector(
            [Fault("serve:classify", TransientError, times=2)]
        )
        clock = VirtualClock()
        service = MemeMatchService(
            tiny_result(),
            config=coalesced_config(
                retry=RetryPolicy(max_retries=3, base_delay=0.01)
            ),
            faults=faults,
            clock=clock.time,
            sleep=clock.sleep,
        )
        service.submit_many([MEDOID_A, MEDOID_B, MEDOID_A])
        responses = service.drain()
        assert [r.status for r in responses] == ["ok"] * 3
        # One shared retry schedule for the whole window.
        assert responses[0].attempts == 3
        assert service.stats.retries == 2
        assert service.stats.reconciles(pending=0)

    def test_permanent_fault_dead_letters_whole_window_conserved(self):
        faults = FaultInjector(
            [Fault("serve:classify", TransientError, times=100)]
        )
        clock = VirtualClock()
        service = MemeMatchService(
            tiny_result(),
            config=coalesced_config(
                retry=RetryPolicy(max_retries=1, base_delay=0.01),
                breaker=BreakerConfig(failure_threshold=5),
            ),
            faults=faults,
            clock=clock.time,
            sleep=clock.sleep,
        )
        service.submit_many([MEDOID_A, MEDOID_B, MEDOID_A, MEDOID_B])
        responses = service.drain()
        assert all(r.status == "dead-lettered" for r in responses)
        assert all("classify-failed" in r.reason for r in responses)
        assert service.stats.dead_lettered == 4
        assert service.stats.reconciles(pending=0)

    def test_breaker_open_sheds_whole_window(self):
        clock = VirtualClock()
        service = MemeMatchService(
            tiny_result(),
            config=coalesced_config(
                breaker=BreakerConfig(
                    failure_threshold=1, open_duration_s=100.0
                ),
            ),
            clock=clock.time,
            sleep=clock.sleep,
        )
        service.breaker.record_failure()  # breaker now open
        service.submit_many([MEDOID_A, MEDOID_B, MEDOID_A])
        responses = service.drain()
        assert all(r.status == "shed" for r in responses)
        assert all(r.reason == "breaker-open" for r in responses)
        assert service.stats.breaker_fast_fails == 3
        assert service.stats.reconciles(pending=0)

    def test_half_open_probes_fall_back_to_per_request(self):
        clock = VirtualClock()
        service = MemeMatchService(
            tiny_result(),
            config=coalesced_config(
                breaker=BreakerConfig(
                    failure_threshold=1,
                    open_duration_s=1.0,
                    probe_successes=2,
                ),
            ),
            clock=clock.time,
            sleep=clock.sleep,
        )
        service.breaker.record_failure()
        clock.advance(1.5)  # open -> half-open
        assert service.breaker.probing
        service.submit_many([MEDOID_A, MEDOID_B, MEDOID_A])
        responses = service.drain()
        assert [r.status for r in responses] == ["ok"] * 3
        # Each request was an individual probe (until the breaker
        # closed after two successes), not one coalesced probe.
        assert service.stats.probes == 2
        assert service.breaker.state == "closed"
        assert service.stats.reconciles(pending=0)


class TestConfigValidation:
    def test_coalesce_window_validated(self):
        for window in (None, 0, -1):
            with pytest.raises(ValueError):
                ServiceConfig(coalesce_window=window)
        assert ServiceConfig().coalesce_window == 1
