"""Retry with exponential backoff for transient stage failures.

The staged runner (:mod:`repro.core.runner`) distinguishes *transient*
failures — worth retrying with backoff, e.g. an interrupted I/O path or
an injected :class:`TransientError` — from *permanent* ones that should
flow into the degradation/quarantine machinery immediately.  This module
holds the policy and the generic retry loop; it knows nothing about
pipeline stages.

The online serving layer (:mod:`repro.service`) adds two requirements on
top of the batch runner's needs, both supported here:

* **Jitter** — many concurrent requests retrying a shared dependency
  must not synchronise their backoff into thundering herds.
  ``RetryPolicy(jitter="full")`` draws each delay uniformly from
  ``[0, exponential delay]`` (AWS-style *full jitter*) from an
  **injected** rng, so tests and replays are deterministic under a
  fixed seed — there is no hidden global random state.
* **Deadlines** — an online request has a latency budget; retrying past
  it wastes capacity on an answer nobody is waiting for.
  :func:`retry_call` takes an optional absolute ``deadline`` (on the
  injected ``clock``) and raises :class:`DeadlineExceeded` instead of
  sleeping past it; sleeps are capped to the remaining budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

__all__ = [
    "RetryPolicy",
    "RetryOutcome",
    "TransientError",
    "DeadlineExceeded",
    "retry_call",
]

T = TypeVar("T")

JITTER_MODES = ("none", "full")


class TransientError(RuntimeError):
    """A failure expected to succeed on retry (timeouts, flaky I/O)."""


# The exception types a retry may heal; anything else propagates on the
# first failure, interrupts (KeyboardInterrupt, SystemExit) included.
_RETRYABLE = (TransientError, OSError)


class DeadlineExceeded(RuntimeError):
    """The retry loop ran out of deadline budget before succeeding.

    Raised by :func:`retry_call` when a transient failure would require
    backing off past the caller's deadline.  The triggering error is
    chained as ``__cause__``.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to back off.

    Attributes
    ----------
    max_retries:
        Retries *after* the first attempt (0 disables retrying).
    base_delay:
        Sleep before the first retry, in seconds.
    backoff:
        Multiplier applied to the delay after each failed retry.
    max_delay:
        Upper bound on any single sleep.
    jitter:
        ``"none"`` (default) keeps the classic deterministic exponential
        schedule; ``"full"`` draws each delay uniformly from
        ``[0, exponential delay]`` using the rng injected into
        :meth:`delay_for` / :func:`retry_call` — never global random
        state, so a fixed seed reproduces the exact schedule.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 5.0
    jitter: str = "none"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.jitter not in JITTER_MODES:
            raise ValueError(
                f"jitter must be one of {JITTER_MODES}, got {self.jitter!r}"
            )

    def delay_for(self, retry_index: int, *, rng=None) -> float:
        """Backoff before retry ``retry_index`` (0-based).

        With ``jitter="full"`` an rng (``numpy.random.Generator`` or
        anything with ``uniform(low, high)``) is required and the delay
        is drawn from ``[0, exponential delay]``.
        """
        ceiling = min(self.base_delay * self.backoff**retry_index, self.max_delay)
        if self.jitter == "none":
            return ceiling
        if rng is None:
            raise ValueError("jitter='full' requires an injected rng")
        return float(rng.uniform(0.0, ceiling))


@dataclass
class RetryOutcome:
    """What the retry loop observed: attempts made and errors swallowed."""

    value: object = None
    attempts: int = 0
    errors: list[str] = field(default_factory=list)


def retry_call(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    *,
    sleep: Callable[[float], None] | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
    rng=None,
    deadline: float | None = None,
    clock: Callable[[], float] | None = None,
) -> RetryOutcome:
    """Call ``fn`` under ``policy``, returning value + attempt bookkeeping.

    Transient exceptions (:class:`TransientError` and :class:`OSError`)
    are retried up to
    ``policy.max_retries`` times with exponential backoff; the last one
    re-raises if every attempt fails.  Non-transient exceptions propagate
    immediately.  ``sleep`` is injectable so tests never actually wait.

    ``rng`` feeds jittered policies (see :class:`RetryPolicy.jitter`).

    ``deadline`` is an *absolute* time on ``clock`` (default
    ``time.monotonic``).  After a transient failure, if the deadline has
    passed — or only :class:`DeadlineExceeded` could result from waiting,
    because zero budget remains — the loop raises
    :class:`DeadlineExceeded` from the triggering error instead of
    sleeping.  Otherwise the backoff sleep is capped to the remaining
    budget, so the next attempt starts within the deadline.
    """
    policy = policy or RetryPolicy()
    sleep = time.sleep if sleep is None else sleep
    clock = time.monotonic if clock is None else clock
    outcome = RetryOutcome()
    for retry_index in range(policy.max_retries + 1):
        outcome.attempts += 1
        try:
            outcome.value = fn()
            return outcome
        except _RETRYABLE as error:
            outcome.errors.append(f"{type(error).__name__}: {error}")
            if retry_index == policy.max_retries:
                raise
            delay = policy.delay_for(retry_index, rng=rng)
            if deadline is not None:
                remaining = deadline - clock()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"deadline passed after {outcome.attempts} attempts"
                    ) from error
                delay = min(delay, remaining)
            if on_retry is not None:
                on_retry(retry_index, error)
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
