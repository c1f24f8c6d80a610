"""The columnar service against the per-request oracle, scenario by scenario.

:class:`tests.service_reference.ReferenceService` is the per-request
object path.  Every scenario here — bursts of clean and poison payloads
with per-burst deadlines, clock advances, drains of any size, a classify
that takes virtual time, scripted ``serve:classify`` / ``serve:probe``
faults, bounded queues and breakers — runs through both on their own
:class:`VirtualClock`, and after every step the two must agree on each
response's ``(request_id, status, verdict, reason, attempts)``, on the
stats and on the dead letters, at drain windows from 1 to 128.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import Fault, FaultInjector
from repro.service import (
    BreakerConfig,
    MemeMatchService,
    ServiceConfig,
    VirtualClock,
)
from repro.utils.retry import RetryPolicy, TransientError

from tests.service_reference import ReferenceService
from tests.test_service import MEDOID_A, MEDOID_B, tiny_result

# Payloads the per-item check must judge exactly as the fast path does:
# numeric text, bools among ints, integral and fractional floats, out of
# range ints, numpy scalars, and 2**63 beside small ints.
POISON = [
    "010", "not-a-hash", b"7", True, False, 5.5, 5.0, np.float64(3.0), -1, 2**64,
    None, [1, 2],
]
CLEAN = [
    MEDOID_A,
    MEDOID_B,
    MEDOID_A ^ 0b11,  # within theta of A
    0x1234_5678_9ABC_DEF0,  # matches nothing
    2**63,
    2**64 - 1,
    0,
    1,
]
ODD_CLEAN = [np.uint64(MEDOID_B), np.int64(7)]

ints = st.one_of(st.sampled_from(CLEAN), st.integers(0, 2**64 - 1))
bursts = st.one_of(
    st.lists(ints, max_size=24),  # plain ints: the one-call conversion
    st.lists(ints, max_size=24).map(lambda xs: np.array(xs, dtype=np.uint64)),
    st.lists(
        st.one_of(ints, st.sampled_from(POISON), st.sampled_from(ODD_CLEAN)),
        max_size=24,
    ),
)
steps = st.one_of(
    st.tuples(
        st.just("submit"),
        bursts,
        st.one_of(st.none(), st.sampled_from([0.0, 0.4, 1.0, 3.0])),
    ),
    st.tuples(st.just("advance"), st.sampled_from([0.1, 0.5, 1.0, 2.5])),
    st.tuples(st.just("drain"), st.one_of(st.none(), st.integers(1, 40))),
)


@dataclass
class Scenario:
    config: ServiceConfig
    faults: list = field(default_factory=list)  # (site, error, times)
    classify_s: float = 0.0  # virtual time one classify_batch call takes


@st.composite
def scenarios(draw):
    depth = draw(st.one_of(st.none(), st.integers(1, 48)))
    watermark = None
    if depth is not None and draw(st.booleans()):
        watermark = draw(st.integers(1, depth))
    breaker = draw(
        st.one_of(
            st.none(),
            st.builds(
                BreakerConfig,
                failure_threshold=st.integers(1, 3),
                open_duration_s=st.sampled_from([0.5, 1.0, 3.0]),
                probe_successes=st.integers(1, 3),
            ),
        )
    )
    retry = draw(
        st.builds(
            RetryPolicy,
            max_retries=st.integers(0, 2),
            base_delay=st.sampled_from([0.0, 0.1, 0.6]),
            max_delay=st.just(1.0),
            jitter=st.sampled_from(["none", "full"]),
        )
    )
    config = ServiceConfig(
        default_deadline_s=draw(st.one_of(st.none(), st.sampled_from([0.5, 2.0]))),
        max_queue_depth=depth,
        shed_watermark=watermark,
        retry=retry,
        breaker=breaker,
        jitter_seed=draw(st.integers(0, 3)),
        max_dead_letters=draw(st.integers(0, 6)),
        coalesce_window=draw(st.integers(1, 128)),
    )
    faults = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["serve:classify", "serve:probe"]),
                st.sampled_from([TransientError, RuntimeError, ValueError]),
                st.integers(1, 4),
            ),
            max_size=3,
        )
    )
    classify_s = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    return Scenario(config, faults, classify_s)


def build(cls, scenario):
    clock = VirtualClock()
    faults = FaultInjector(
        [Fault(site, error, times=times) for site, error, times in scenario.faults]
    )
    service = cls(
        tiny_result(),
        config=scenario.config,
        faults=faults,
        clock=clock.time,
        sleep=clock.sleep,
    )
    inner = service._monitor.classify_batch

    def classify(values):
        clock.advance(scenario.classify_s)
        return inner(values)

    service._monitor.classify_batch = classify
    return service, clock


def outcome(response):
    if response is None:
        return None
    return (
        response.request_id,
        response.status,
        response.verdict,
        response.reason,
        response.attempts,
    )


def letters(service, payloads):
    """Dead letters as comparable tuples.

    A poison letter keeps ``repr`` of the caller's payload.  A letter
    from a failed classify records the validated hash, so the oracle's
    ``repr`` of the raw payload is mapped to ``repr`` of its int.
    """
    out = []
    for letter in service.dead_letters:
        payload = letter.payload
        if isinstance(service, ReferenceService) and not letter.reason.startswith(
            "invalid-input"
        ):
            payload = repr(int(payloads[letter.request_id]))
        out.append((letter.request_id, payload, letter.reason, letter.time))
    return out


def check(scenario, steps):
    new, new_clock = build(MemeMatchService, scenario)
    ref, ref_clock = build(ReferenceService, scenario)
    payloads = []  # every submitted payload, by request id
    for step in steps + [("drain", None)]:
        if step[0] == "submit":
            _, burst, deadline_s = step
            payloads.extend(list(burst))
            got = new.submit_many(burst, deadline_s=deadline_s)
            want = ref.submit_many(burst, deadline_s=deadline_s)
        elif step[0] == "advance":
            new_clock.advance(step[1])
            ref_clock.advance(step[1])
            continue
        else:
            got = new.drain(step[1])
            want = ref.drain(step[1])
        assert [outcome(r) for r in got] == [outcome(r) for r in want], step
        assert new.stats.as_dict() == ref.stats.as_dict(), step
        assert new.pending == ref.pending
        assert letters(new, payloads) == letters(ref, payloads), step
        assert new_clock.time() == ref_clock.time()
        assert new.stats.reconciles(pending=new.pending)
    assert new.pending == 0


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.lists(steps, max_size=12))
def test_matches_the_per_request_oracle(scenario, steps):
    check(scenario, steps)


def mixed_burst(n):
    return [CLEAN[i % 4] for i in range(n)]


@pytest.mark.parametrize("window", [1, 2, 7, 64, 128])
def test_open_breaker_sheds_the_window(window):
    scenario = Scenario(
        ServiceConfig(
            max_queue_depth=None,
            retry=RetryPolicy(max_retries=0),
            breaker=BreakerConfig(failure_threshold=1, open_duration_s=5.0),
            coalesce_window=window,
        ),
        faults=[("serve:classify", RuntimeError, 1)],
    )
    # The first window fails and opens the breaker; the rest shed.
    check(scenario, [("submit", mixed_burst(150), None), ("drain", None)])


@pytest.mark.parametrize("window", [2, 5, 64, 128])
@pytest.mark.parametrize("probe_fault", [False, True])
def test_half_open_breaker_probes_one_request_at_a_time(window, probe_fault):
    scenario = Scenario(
        ServiceConfig(
            max_queue_depth=None,
            retry=RetryPolicy(max_retries=0),
            breaker=BreakerConfig(
                failure_threshold=1, open_duration_s=1.0, probe_successes=2
            ),
            coalesce_window=window,
        ),
        faults=[("serve:classify", RuntimeError, 1)]
        + ([("serve:probe", TransientError, 1)] if probe_fault else []),
    )
    check(
        scenario,
        [
            ("submit", [MEDOID_A], None),
            ("drain", None),  # fails: the breaker opens
            ("submit", mixed_burst(window + 3) + ["010", -1], 10.0),
            ("advance", 1.5),  # open -> half-open
            ("drain", None),
        ],
    )


@pytest.mark.parametrize("window", [1, 3, 64])
def test_deadlines_expire_in_the_queue_and_mid_window(window):
    scenario = Scenario(
        ServiceConfig(
            max_queue_depth=None,
            retry=RetryPolicy(max_retries=0),
            breaker=None,
            coalesce_window=window,
        ),
        classify_s=0.6,
    )
    check(
        scenario,
        [
            ("submit", mixed_burst(5), 0.5),  # expires while queued
            ("advance", 0.4),
            ("submit", mixed_burst(5), 1.0),  # expires mid-window
            ("submit", mixed_burst(5), None),  # never expires
            ("advance", 0.3),
            ("drain", None),
        ],
    )


@pytest.mark.parametrize("window", [1, 4, 128])
def test_queue_full_and_watermark_shedding(window):
    for depth, watermark in [(6, None), (10, 4)]:
        scenario = Scenario(
            ServiceConfig(
                max_queue_depth=depth,
                shed_watermark=watermark,
                retry=RetryPolicy(max_retries=0),
                breaker=None,
                coalesce_window=window,
            )
        )
        check(
            scenario,
            [
                ("submit", mixed_burst(3), None),
                ("submit", mixed_burst(5) + ["010"], None),
                ("drain", 2),
                ("submit", mixed_burst(9), None),
            ],
        )
