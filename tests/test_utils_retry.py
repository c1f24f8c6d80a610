"""Tests for the retry/backoff helper."""

import pytest

from repro.utils.retry import RetryPolicy, TransientError, retry_call


class Flaky:
    """Fails ``failures`` times with ``error``, then returns ``value``."""

    def __init__(self, failures, error=TransientError("flaky"), value="ok"):
        self.failures = failures
        self.error = error
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return self.value


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)

    def test_exponential_delays_capped(self):
        policy = RetryPolicy(base_delay=1.0, backoff=2.0, max_delay=3.0)
        assert policy.delay_for(0) == 1.0
        assert policy.delay_for(1) == 2.0
        assert policy.delay_for(2) == 3.0  # capped, not 4.0


class TestRetryCall:
    def test_success_first_try(self):
        outcome = retry_call(lambda: 7, RetryPolicy(max_retries=3))
        assert outcome.value == 7
        assert outcome.attempts == 1
        assert outcome.errors == []

    def test_transient_failures_retried(self):
        flaky = Flaky(failures=2)
        outcome = retry_call(
            flaky, RetryPolicy(max_retries=2), sleep=lambda s: None
        )
        assert outcome.value == "ok"
        assert outcome.attempts == 3
        assert len(outcome.errors) == 2

    def test_exhaustion_reraises_last_error(self):
        flaky = Flaky(failures=5)
        with pytest.raises(TransientError):
            retry_call(flaky, RetryPolicy(max_retries=2), sleep=lambda s: None)
        assert flaky.calls == 3

    def test_permanent_error_not_retried(self):
        flaky = Flaky(failures=5, error=ValueError("permanent"))
        with pytest.raises(ValueError):
            retry_call(flaky, RetryPolicy(max_retries=3), sleep=lambda s: None)
        assert flaky.calls == 1

    def test_backoff_sequence_observed(self):
        slept = []
        flaky = Flaky(failures=3)
        retry_call(
            flaky,
            RetryPolicy(max_retries=3, base_delay=0.1, backoff=2.0),
            sleep=slept.append,
        )
        assert slept == pytest.approx([0.1, 0.2, 0.4])

    def test_on_retry_callback(self):
        seen = []
        retry_call(
            Flaky(failures=1),
            RetryPolicy(max_retries=1),
            sleep=lambda s: None,
            on_retry=lambda index, error: seen.append((index, str(error))),
        )
        assert seen == [(0, "flaky")]

    def test_zero_retries_disables(self):
        flaky = Flaky(failures=1)
        with pytest.raises(TransientError):
            retry_call(flaky, RetryPolicy(max_retries=0), sleep=lambda s: None)
        assert flaky.calls == 1


class TestJitter:
    def test_unknown_jitter_mode_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter="bogus")

    def test_full_jitter_requires_rng(self):
        policy = RetryPolicy(jitter="full")
        with pytest.raises(ValueError, match="rng"):
            policy.delay_for(0)

    def test_no_jitter_ignores_rng(self):
        policy = RetryPolicy(base_delay=1.0, backoff=2.0)
        assert policy.delay_for(1) == 2.0  # rng not needed

    def test_full_jitter_bounds(self):
        import numpy as np

        policy = RetryPolicy(
            base_delay=1.0, backoff=2.0, max_delay=3.0, jitter="full"
        )
        rng = np.random.default_rng(7)
        for retry_index in range(5):
            ceiling = min(1.0 * 2.0**retry_index, 3.0)
            for _ in range(50):
                delay = policy.delay_for(retry_index, rng=rng)
                assert 0.0 <= delay <= ceiling

    def test_full_jitter_deterministic_under_fixed_seed(self):
        import numpy as np

        policy = RetryPolicy(base_delay=0.5, jitter="full")
        first = [
            policy.delay_for(i, rng=np.random.default_rng(99)) for i in range(4)
        ]
        second = [
            policy.delay_for(i, rng=np.random.default_rng(99)) for i in range(4)
        ]
        assert first == second

    def test_full_jitter_decorrelates_consecutive_draws(self):
        import numpy as np

        policy = RetryPolicy(base_delay=1.0, backoff=1.0, jitter="full")
        rng = np.random.default_rng(3)
        draws = [policy.delay_for(0, rng=rng) for _ in range(20)]
        assert len(set(draws)) > 1  # not a constant schedule

    def test_retry_call_threads_rng_through(self):
        import numpy as np

        policy = RetryPolicy(max_retries=2, base_delay=1.0, jitter="full")
        slept_a, slept_b = [], []
        retry_call(
            Flaky(failures=2), policy, sleep=slept_a.append,
            rng=np.random.default_rng(11),
        )
        retry_call(
            Flaky(failures=2), policy, sleep=slept_b.append,
            rng=np.random.default_rng(11),
        )
        assert slept_a == slept_b
        assert all(0.0 <= s <= 2.0 for s in slept_a)


class TestDeadlineAwareRetry:
    def make_clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        def sleep(seconds):
            state["now"] += seconds

        return clock, sleep

    def test_deadline_exceeded_raised_with_cause(self):
        from repro.utils.retry import DeadlineExceeded

        clock, sleep = self.make_clock()
        flaky = Flaky(failures=10)
        with pytest.raises(DeadlineExceeded) as excinfo:
            retry_call(
                flaky,
                RetryPolicy(max_retries=9, base_delay=1.0, backoff=1.0),
                sleep=sleep, clock=clock, deadline=2.5,
            )
        assert isinstance(excinfo.value.__cause__, TransientError)
        # attempts at t=0, 1, 2; at t=2.5-capped sleep the budget is gone
        assert flaky.calls == 4

    def test_sleep_capped_to_remaining_budget(self):
        clock, sleep = self.make_clock()
        slept = []

        def recording_sleep(seconds):
            slept.append(seconds)
            sleep(seconds)

        flaky = Flaky(failures=10)
        with pytest.raises(Exception):
            retry_call(
                flaky,
                RetryPolicy(max_retries=9, base_delay=2.0, backoff=1.0),
                sleep=recording_sleep, clock=clock, deadline=3.0,
            )
        assert slept == pytest.approx([2.0, 1.0])  # second sleep capped

    def test_success_within_deadline(self):
        clock, sleep = self.make_clock()
        outcome = retry_call(
            Flaky(failures=2),
            RetryPolicy(max_retries=3, base_delay=0.5, backoff=1.0),
            sleep=sleep, clock=clock, deadline=10.0,
        )
        assert outcome.value == "ok"
        assert outcome.attempts == 3

    def test_no_deadline_is_unbounded(self):
        outcome = retry_call(
            Flaky(failures=3),
            RetryPolicy(max_retries=3, base_delay=100.0),
            sleep=lambda s: None,
        )
        assert outcome.value == "ok"


class TestNeverRetryInterrupts:
    """KeyboardInterrupt/SystemExit are not transient: the retry loop
    lets them through on the first attempt."""

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_propagates_immediately(self, interrupt):
        flaky = Flaky(failures=3, error=interrupt())
        policy = RetryPolicy(max_retries=3, base_delay=0.0)
        with pytest.raises(interrupt):
            retry_call(flaky, policy, sleep=lambda s: None)
        assert flaky.calls == 1  # no second attempt

    def test_interrupt_not_recorded_as_swallowed_error(self):
        # Nothing was retried, so no retry hook saw the interrupt.
        calls, retried = [], []

        def fn():
            calls.append(1)
            raise KeyboardInterrupt()

        policy = RetryPolicy(max_retries=5, base_delay=0.0)
        with pytest.raises(KeyboardInterrupt):
            retry_call(
                fn,
                policy,
                sleep=lambda s: None,
                on_retry=lambda index, error: retried.append(error),
            )
        assert len(calls) == 1
        assert retried == []
