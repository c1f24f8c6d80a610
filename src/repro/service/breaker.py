"""Closed / open / half-open circuit breaker for the classify path.

When the matching backend starts failing persistently — a poisoned
index, a dying dependency, an injected ``serve:classify`` fault burst —
retrying every request just burns latency budget on answers that will
not come.  The breaker watches consecutive failures and, past a
threshold, *opens*: requests fail fast (and the service sheds them)
instead of attempting work.  After a cool-down it goes *half-open* and
lets a limited number of probe requests through on a schedule; enough
probe successes close it again, any probe failure re-opens it.

The clock is injected so chaos tests and replays drive the schedule
deterministically — the breaker itself never reads wall time directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["BreakerConfig", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Breaker thresholds and schedule.

    Attributes
    ----------
    failure_threshold:
        Consecutive classify failures that trip the breaker open.
    open_duration_s:
        Cool-down after opening before the first half-open probe is
        admitted.
    probe_successes:
        Consecutive successful probes (half-open) required to close.
    """

    failure_threshold: int = 5
    open_duration_s: float = 30.0
    probe_successes: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.open_duration_s < 0:
            raise ValueError("open_duration_s must be non-negative")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")


class CircuitBreaker:
    """Track failures and gate the classify path.

    Examples
    --------
    >>> breaker = CircuitBreaker(BreakerConfig(failure_threshold=2,
    ...                                        open_duration_s=10.0),
    ...                          clock=lambda: 0.0)
    >>> breaker.record_failure(); breaker.record_failure()
    >>> breaker.state
    'open'
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or BreakerConfig()
        self.clock = clock
        self.opens = 0  # transitions into OPEN (first trip + re-trips)
        self._state = CLOSED
        self._opened_at = 0.0
        self._consecutive_failures = 0
        self._probe_successes = 0

    @property
    def state(self) -> str:
        """Current state; evaluates the half-open schedule lazily."""
        if (
            self._state == OPEN
            and self.clock() - self._opened_at >= self.config.open_duration_s
        ):
            self._state = HALF_OPEN
            self._probe_successes = 0
        return self._state

    def allow(self) -> bool:
        """Whether a request may attempt work right now.

        ``True`` in closed *and* half-open (the half-open admission is
        the probe); ``False`` only while open.
        """
        return self.state != OPEN

    @property
    def probing(self) -> bool:
        """Whether the next admitted request is a half-open probe."""
        return self.state == HALF_OPEN

    def record_success(self) -> None:
        state = self.state
        if state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.probe_successes:
                self._close()
        elif state == CLOSED:
            self._consecutive_failures = 0
        # success while OPEN cannot happen: allow() gated the attempt

    def record_failure(self) -> None:
        state = self.state
        if state == HALF_OPEN:
            self._trip()  # one bad probe re-opens immediately
        elif state == CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.config.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self.clock()
        self.opens += 1
        self._consecutive_failures = 0
        self._probe_successes = 0

    def _close(self) -> None:
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
