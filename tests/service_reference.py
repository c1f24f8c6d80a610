"""The per-request serving path, kept as the oracle of the columnar one.

:class:`ReferenceService` serves requests the way
:class:`repro.service.MemeMatchService` did before a burst travelled as
columns: one :class:`MatchRequest` object per request, one admission
decision per item, payloads validated one by one when their window is
drained, a per-position outcome ladder, and one frozen response per
request, built (with its own clock read) as its outcome is decided.
It is slow and obviously correct; ``tests/test_service_differential.py``
drives it and the service through the same scenarios and compares every
outcome, counter and dead letter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.monitor import MemeMonitor, MonitorVerdict, _validated_hash_array
from repro.service import (
    DEAD_LETTERED,
    OK,
    SHED,
    TIMED_OUT,
    CircuitBreaker,
    DeadLetter,
    ServiceConfig,
    ServiceStats,
)
from repro.utils.retry import DeadlineExceeded, retry_call


def _validate_payload(payload) -> int:
    """One payload through the monitor's batch rule, in one object cell
    so that bytes stay one element (as ``classify_hash`` does)."""
    cell = np.empty(1, dtype=object)
    cell[0] = payload
    return int(_validated_hash_array(cell)[0])


@dataclass(frozen=True)
class MatchRequest:
    """One unit of admitted work: a payload plus its resolved budget."""

    request_id: int
    payload: object
    arrival_time: float
    deadline_s: float | None = None


@dataclass(frozen=True)
class ReferenceResponse:
    """Terminal record for one request, stamped when it was decided."""

    request_id: int
    status: str
    verdict: MonitorVerdict | None = None
    reason: str | None = None
    attempts: int = 0
    latency_s: float = 0.0


class ReferenceService:
    """``submit_many`` / ``drain`` of the service, one object per request.

    Takes the same arguments as :class:`repro.service.MemeMatchService`
    (``clock`` and ``sleep`` are required: the oracle runs on a virtual
    clock) and keeps the same ``stats`` and ``dead_letters``.
    """

    def __init__(self, result, *, config: ServiceConfig, faults, clock, sleep):
        self.config = config
        self.faults = faults
        self.clock = clock
        self._sleep = sleep
        self.stats = ServiceStats()
        self.dead_letters: list[DeadLetter] = []
        self.breaker = (
            CircuitBreaker(config.breaker, clock=clock)
            if config.breaker is not None
            else None
        )
        self._queue: deque[MatchRequest] = deque()
        self._rng = np.random.default_rng(config.jitter_seed)
        self._next_id = 0
        kwargs = {} if config.theta is None else {"theta": config.theta}
        self._monitor = MemeMonitor(result, **kwargs)

    @property
    def pending(self) -> int:
        return len(self._queue)

    # -- admission: one decision per item ---------------------------------

    def _offer(self, request: MatchRequest) -> str | None:
        """Enqueue ``request``, or return its shed reason."""
        depth = len(self._queue)
        bound = self.config.max_queue_depth
        watermark = (
            self.config.shed_watermark
            if self.config.shed_watermark is not None
            else bound
        )
        if bound is not None and depth >= bound:
            return "queue-full"
        if watermark is not None and depth >= watermark:
            return "queue-watermark"
        self._queue.append(request)
        return None

    def submit_many(self, payloads, *, deadline_s=None):
        payloads = list(payloads)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        arrival = self.clock()
        out = []
        for payload in payloads:
            request = MatchRequest(self._next_id, payload, arrival, deadline_s)
            self._next_id += 1
            self.stats.submitted += 1
            reason = self._offer(request)
            if reason is None:
                self.stats.admitted += 1
                out.append(None)
            else:
                self.stats.shed += 1
                out.append(ReferenceResponse(request.request_id, SHED, reason=reason))
        return out

    def drain(self, max_requests=None):
        responses = []
        window = self.config.coalesce_window
        while max_requests is None or len(responses) < max_requests:
            budget = (
                window
                if max_requests is None
                else min(window, max_requests - len(responses))
            )
            batch = []
            while len(batch) < budget and self._queue:
                batch.append(self._queue.popleft())
            if not batch:
                break
            responses.extend(self._process_batch(batch))
        return responses

    # -- the per-position outcome ladder -----------------------------------

    def _response(self, request, status, start, **kwargs):
        return ReferenceResponse(
            request.request_id, status, latency_s=self.clock() - start, **kwargs
        )

    def _dead_letter(self, request, reason, start, attempts=0):
        self.stats.dead_lettered += 1
        self.dead_letters.append(
            DeadLetter(request.request_id, repr(request.payload), reason, self.clock())
        )
        if len(self.dead_letters) > self.config.max_dead_letters:
            del self.dead_letters[0]
            self.stats.dead_letters_evicted += 1
        return self._response(
            request, DEAD_LETTERED, start, reason=reason, attempts=attempts
        )

    def _process_batch(self, requests):
        start = self.clock()
        responses = [None] * len(requests)
        deadlines = [
            None if r.deadline_s is None else r.arrival_time + r.deadline_s
            for r in requests
        ]

        live = []
        for position, deadline in enumerate(deadlines):
            if deadline is not None and start > deadline:
                self.stats.timed_out += 1
                responses[position] = self._response(
                    requests[position], TIMED_OUT, start, reason="expired-in-queue"
                )
            else:
                live.append(position)

        scalars, kept = [], []
        for position in live:
            try:
                scalars.append(_validate_payload(requests[position].payload))
                kept.append(position)
            except (TypeError, ValueError) as error:
                responses[position] = self._dead_letter(
                    requests[position], f"invalid-input: {error}", start
                )
        live = kept
        if not live:
            return responses
        values = np.array(scalars, dtype=np.uint64)

        site = "serve:classify"
        if self.breaker is not None:
            if not self.breaker.allow():
                self.stats.shed += len(live)
                self.stats.breaker_fast_fails += len(live)
                for position in live:
                    responses[position] = self._response(
                        requests[position], SHED, start, reason="breaker-open"
                    )
                return responses
            if self.breaker.probing:
                if len(live) > 1:
                    for position in live:
                        [responses[position]] = self._process_batch(
                            [requests[position]]
                        )
                    return responses
                self.stats.probes += 1
                site = "serve:probe"

        monitor = self._monitor
        batch_deadline = None
        if all(deadlines[i] is not None for i in live):
            batch_deadline = max(deadlines[i] for i in live)
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            if self.faults is not None:
                self.faults.fire(site)
            return monitor.classify_batch(values)

        try:
            outcome = retry_call(
                attempt,
                self.config.retry,
                sleep=self._sleep,
                rng=self._rng,
                clock=self.clock,
                deadline=batch_deadline,
            )
        except DeadlineExceeded as error:
            self.stats.retries += max(0, attempts - 1)
            self.stats.timed_out += len(live)
            for position in live:
                responses[position] = self._response(
                    requests[position],
                    TIMED_OUT,
                    start,
                    reason=str(error),
                    attempts=attempts,
                )
            return responses
        except (TypeError, ValueError) as error:
            self.stats.retries += max(0, attempts - 1)
            for position in live:
                responses[position] = self._dead_letter(
                    requests[position], f"rejected: {error}", start, attempts
                )
            return responses
        except Exception as error:
            self.stats.retries += max(0, attempts - 1)
            if self.breaker is not None:
                self.breaker.record_failure()
                self.stats.breaker_opens = self.breaker.opens
            reason = f"classify-failed: {type(error).__name__}: {error}"
            for position in live:
                responses[position] = self._dead_letter(
                    requests[position], reason, start, attempts
                )
            return responses
        self.stats.retries += max(0, attempts - 1)
        if self.breaker is not None:
            self.breaker.record_success()

        now = self.clock()
        for position, verdict in zip(live, outcome.value):
            deadline = deadlines[position]
            if deadline is not None and now > deadline:
                self.stats.timed_out += 1
                responses[position] = self._response(
                    requests[position],
                    TIMED_OUT,
                    start,
                    reason="expired-in-batch",
                    attempts=attempts,
                )
            else:
                self.stats.served += 1
                responses[position] = self._response(
                    requests[position], OK, start, verdict=verdict, attempts=attempts
                )
        return responses
