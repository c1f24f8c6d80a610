"""`MemeMatchService`: `MemeMonitor` hardened for continuous serving.

The paper's Discussion pitches the pipeline as a deployable moderation
service; :class:`~repro.core.monitor.MemeMonitor` is the matching
engine, and this module is the production shell around it.  Every
request submitted to the service terminates in **exactly one** of four
accounted states — that conservation property is the layer's core
contract, checked by the chaos suite under every fault schedule:

``ok``
    A :class:`~repro.core.monitor.MonitorVerdict`, possibly after
    deadline-aware jittered retries (:mod:`repro.utils.retry`).
``shed``
    Rejected without classify work: the admission queue was at its
    watermark (:mod:`repro.service.admission`) or the circuit breaker
    was open (:mod:`repro.service.breaker`).
``timed-out``
    The request's deadline passed — in the queue, or mid-retry.
``dead-lettered``
    Poison input (unparseable / out-of-range hash) or a permanently
    failing classify; recorded with a reason in :attr:`MemeMatchService.
    dead_letters` instead of raising out of the batch.

Hot index reload (:meth:`MemeMatchService.reload_index`) swaps in a new
pipeline run from a checkpoint atomically; the old index serves every
request until the new one is fully validated, and a corrupt or stale
checkpoint rolls back to the old index (:mod:`repro.service.reload`).

Time is injectable everywhere (``clock``/``sleep``), and
:class:`VirtualClock` provides a deterministic pair for tests, chaos
replays, and benchmarks.  Chaos scheduling itself goes through
:class:`repro.core.faults.FaultInjector` via the ``serve:classify``,
``serve:probe`` and ``serve:reload`` sites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import Callable, Iterable

import numpy as np

from repro.core.faults import FaultInjector
from repro.core.monitor import MemeMonitor, MonitorVerdict
from repro.core.results import PipelineResult
from repro.service.admission import AdmissionQueue
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.reload import load_index, validate_result
from repro.utils.retry import DeadlineExceeded, RetryPolicy, retry_call

__all__ = [
    "MatchRequest",
    "ServiceResponse",
    "DeadLetter",
    "ReloadReport",
    "ServiceConfig",
    "ServiceStats",
    "MemeMatchService",
    "VirtualClock",
    "OK",
    "SHED",
    "TIMED_OUT",
    "DEAD_LETTERED",
]

OK = "ok"
SHED = "shed"
TIMED_OUT = "timed-out"
DEAD_LETTERED = "dead-lettered"


class VirtualClock:
    """Deterministic ``(clock, sleep)`` pair for tests and replays.

    ``sleep`` advances the clock instead of blocking, so backoff
    schedules and breaker cool-downs play out instantly but in exact
    simulated time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def time(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds

    advance = sleep


@dataclass(frozen=True)
class MatchRequest:
    """One unit of admitted work: a hash-like payload plus its budget.

    ``deadline_s`` is the *resolved* per-request budget (submit applies
    the config default), measured from ``arrival_time`` — queue wait
    counts against it, exactly as a caller-side timeout would.
    """

    request_id: int
    payload: object
    arrival_time: float
    deadline_s: float | None = None


@dataclass(frozen=True)
class ServiceResponse:
    """Terminal record for one request: exactly one of the four states."""

    request_id: int
    status: str  # OK | SHED | TIMED_OUT | DEAD_LETTERED
    verdict: MonitorVerdict | None = None
    reason: str | None = None
    attempts: int = 0
    latency_s: float = 0.0


@dataclass(frozen=True)
class DeadLetter:
    """Why one request was quarantined instead of answered."""

    request_id: int
    payload: str  # repr of the offending input
    reason: str
    time: float


@dataclass(frozen=True)
class ReloadReport:
    """Outcome of one hot index reload attempt."""

    ok: bool
    error: str | None
    n_clusters_before: int
    n_clusters_after: int
    duration_s: float


@dataclass(frozen=True)
class ServiceConfig:
    """All knobs of the resilience layer.

    The defaults are a serving posture; the identity configuration for
    offline verification (unbounded queue, breaker off, no deadline,
    no retries) is ``ServiceConfig(retry=RetryPolicy(max_retries=0),
    breaker=None)``.

    Attributes
    ----------
    theta:
        Matching threshold passed to :class:`MemeMonitor`; ``None``
        keeps the monitor's default (the paper's θ = 8).
    default_deadline_s:
        Per-request latency budget applied when ``submit`` is not given
        one; ``None`` disables deadlines.
    max_queue_depth / shed_watermark:
        Admission bounds (see :class:`AdmissionQueue`); ``None``
        depth = unbounded.
    retry:
        Policy for transient classify failures.  The default retries
        twice with full jitter so concurrent retries decorrelate.
    breaker:
        Circuit-breaker thresholds, or ``None`` to disable the breaker.
    jitter_seed:
        Seed of the service-owned rng that feeds retry jitter —
        deterministic, never global random state.
    max_dead_letters:
        Bound on the retained dead-letter records (oldest dropped
        first; ``stats.dead_letters_evicted`` counts the drops).
    coalesce_window:
        When set (>= 1), :meth:`MemeMatchService.drain` processes up to
        this many queued requests per *drain batch*: one clock read,
        one breaker check, and one vectorised
        :meth:`~repro.core.monitor.MemeMonitor.classify_batch` fan-in
        per batch, with per-request outcomes scattered back (a request
        whose deadline expires mid-batch still individually times out).
        ``None`` keeps the per-request path.
    """

    theta: int | None = None
    default_deadline_s: float | None = None
    max_queue_depth: int | None = 1024
    shed_watermark: int | None = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=2, base_delay=0.01, max_delay=0.25, jitter="full"
        )
    )
    breaker: BreakerConfig | None = field(default_factory=BreakerConfig)
    jitter_seed: int = 0
    max_dead_letters: int = 1024
    coalesce_window: int | None = None

    def __post_init__(self) -> None:
        if self.coalesce_window is not None and self.coalesce_window < 1:
            raise ValueError("coalesce_window must be >= 1 (or None)")


@dataclass
class ServiceStats:
    """Every request accounted: the health snapshot counters.

    Conservation invariant (checked by :meth:`reconciles`): each
    submitted request is counted in exactly one of ``served`` /
    ``shed`` / ``timed_out`` / ``dead_lettered`` once it terminates;
    the remainder is still queued.
    """

    submitted: int = 0
    admitted: int = 0
    served: int = 0
    shed: int = 0
    timed_out: int = 0
    dead_lettered: int = 0
    dead_letters_evicted: int = 0
    retries: int = 0
    breaker_fast_fails: int = 0
    breaker_opens: int = 0
    probes: int = 0
    reloads: int = 0
    reload_failures: int = 0

    def terminal_total(self) -> int:
        return self.served + self.shed + self.timed_out + self.dead_lettered

    def reconciles(self, pending: int = 0) -> bool:
        """No request silently lost: submitted = terminal + still-queued."""
        return self.submitted == self.terminal_total() + pending

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "served": self.served,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "dead_lettered": self.dead_lettered,
            "dead_letters_evicted": self.dead_letters_evicted,
            "retries": self.retries,
            "breaker_fast_fails": self.breaker_fast_fails,
            "breaker_opens": self.breaker_opens,
            "probes": self.probes,
            "reloads": self.reloads,
            "reload_failures": self.reload_failures,
        }


def _validate_payload(payload) -> int:
    """Scalar poison check, mirroring ``MemeMonitor.classify_hash``."""
    if isinstance(payload, bool):
        raise TypeError("pHash must be an integer, got bool")
    if isinstance(payload, float) and not float(payload).is_integer():
        raise TypeError(f"pHash must be integral, got float {payload!r}")
    try:
        value = int(payload)
    except (TypeError, ValueError):
        raise TypeError(
            f"pHash must be integer-like, got {type(payload).__name__}"
        )
    if not 0 <= value < 2**64:
        raise ValueError(f"pHash {value} outside the unsigned 64-bit range")
    return value


class MemeMatchService:
    """Serve meme-match verdicts with deadlines, shedding, and a breaker.

    Parameters
    ----------
    result:
        The pipeline run backing the initial index (validated up front).
    config:
        Resilience knobs; defaults to the serving posture.
    faults:
        Optional chaos schedule; the service fires ``serve:classify`` /
        ``serve:probe`` / ``serve:reload`` at the matching boundaries.
    clock / sleep:
        Injectable time pair (see :class:`VirtualClock`); defaults to
        ``time.monotonic`` / ``time.sleep``.

    Examples
    --------
    >>> # service = MemeMatchService(pipeline_result)
    >>> # responses = service.serve(post.phash for post in stream)
    >>> # service.health()["conserved"]
    """

    def __init__(
        self,
        result: PipelineResult,
        *,
        config: ServiceConfig | None = None,
        faults: FaultInjector | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        cache=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.faults = faults
        # Optional repro.core.cache.ContentCache: hot reloads of an
        # unchanged index checkpoint skip the unpickle (memory tier,
        # keyed on file content).
        self.cache = cache
        self.clock = time.monotonic if clock is None else clock
        self._sleep = time.sleep if sleep is None else sleep
        self.stats = ServiceStats()
        self.dead_letters: list[DeadLetter] = []
        self.breaker = (
            CircuitBreaker(self.config.breaker, clock=self.clock)
            if self.config.breaker is not None
            else None
        )
        self._queue = AdmissionQueue(
            max_depth=self.config.max_queue_depth,
            shed_watermark=self.config.shed_watermark,
        )
        self._rng = np.random.default_rng(self.config.jitter_seed)
        self._swap_lock = Lock()
        self._next_id = 0
        self._monitor = self._build_monitor(result)

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    def _build_monitor(self, result: PipelineResult) -> MemeMonitor:
        validate_result(result)
        kwargs = {} if self.config.theta is None else {"theta": self.config.theta}
        return MemeMonitor(result, **kwargs)

    @property
    def index_size(self) -> int:
        """Number of annotated clusters in the live index."""
        return len(self._monitor)

    def reload_index(self, checkpoint_path: str | Path) -> ReloadReport:
        """Validate a new index checkpoint and atomically swap it in.

        The old index keeps serving while the checkpoint is read and
        validated; any failure — injected ``serve:reload`` fault, disk
        corruption, stale fingerprint, unservable payload — leaves the
        old index in place (rollback is "never swapped") and is
        recorded in ``stats.reload_failures``.
        """
        start = self.clock()
        before = self.index_size
        checkpoint_path = Path(checkpoint_path)
        try:
            self._fire("serve:reload", path=checkpoint_path)
            monitor = self._build_monitor(
                load_index(checkpoint_path, cache=self.cache)
            )
        except Exception as error:
            self.stats.reload_failures += 1
            return ReloadReport(
                ok=False,
                error=f"{type(error).__name__}: {error}",
                n_clusters_before=before,
                n_clusters_after=before,
                duration_s=self.clock() - start,
            )
        with self._swap_lock:
            displaced = self._monitor
            self._monitor = monitor
        # Release the displaced monitor only after the swap: requests
        # already inside classify keep their reference (and any mapped
        # segments stay valid until their attachments close), while new
        # requests only ever see the fresh index.
        displaced.close()
        self.stats.reloads += 1
        return ReloadReport(
            ok=True,
            error=None,
            n_clusters_before=before,
            n_clusters_after=len(monitor),
            duration_s=self.clock() - start,
        )

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------

    def submit(
        self,
        payload,
        *,
        deadline_s: float | None = None,
        request_id: int | None = None,
    ) -> ServiceResponse | None:
        """Admit one request, or shed it immediately.

        Returns the terminal :class:`ServiceResponse` when the request
        was shed at admission (backpressure), else ``None`` — the
        request is queued and will terminate via :meth:`drain`.
        """
        if request_id is None:
            request_id = self._next_id
        self._next_id = max(self._next_id, request_id) + 1
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        request = MatchRequest(
            request_id=request_id,
            payload=payload,
            arrival_time=self.clock(),
            deadline_s=deadline_s,
        )
        self.stats.submitted += 1
        decision = self._queue.offer(request)
        if not decision.admitted:
            self.stats.shed += 1
            return ServiceResponse(
                request_id, SHED, reason=decision.reason, latency_s=0.0
            )
        self.stats.admitted += 1
        return None

    def submit_many(
        self, payloads: Iterable, *, deadline_s: float | None = None
    ) -> list[ServiceResponse | None]:
        """Admit a burst of requests with per-burst fixed costs.

        The amortised twin of :meth:`submit`: one clock read stamps
        every arrival, ids are assigned in bulk, and admission runs
        through :meth:`AdmissionQueue.offer_many` (one watermark
        computation, decision-identical to per-request offers).
        Returns a list aligned with ``payloads``: the terminal SHED
        response where a request was rejected at admission, ``None``
        where it was queued and will terminate via :meth:`drain`.

        Conservation holds at the call boundary: ``submitted`` grows by
        ``len(payloads)``, split exactly between ``shed`` and the
        requests now pending in the queue.
        """
        payloads = list(payloads)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        arrival = self.clock()
        base = self._next_id
        requests = [
            MatchRequest(
                request_id=base + position,
                payload=payload,
                arrival_time=arrival,
                deadline_s=deadline_s,
            )
            for position, payload in enumerate(payloads)
        ]
        self._next_id = base + len(requests)
        self.stats.submitted += len(requests)
        decisions = self._queue.offer_many(requests)
        out: list[ServiceResponse | None] = []
        admitted = 0
        for request, decision in zip(requests, decisions):
            if decision.admitted:
                admitted += 1
                out.append(None)
            else:
                out.append(
                    ServiceResponse(
                        request.request_id,
                        SHED,
                        reason=decision.reason,
                        latency_s=0.0,
                    )
                )
        self.stats.admitted += admitted
        self.stats.shed += len(requests) - admitted
        return out

    def drain(self, max_requests: int | None = None) -> list[ServiceResponse]:
        """Process queued requests FIFO; each returns a terminal response.

        With :attr:`ServiceConfig.coalesce_window` set, requests are
        popped in windows of up to that size and each window is served
        by one :meth:`_process_batch` fan-in — the amortised fast path.
        Response order is unchanged (FIFO, one terminal response per
        request) either way.
        """
        responses: list[ServiceResponse] = []
        window = self.config.coalesce_window
        if window is None:
            while max_requests is None or len(responses) < max_requests:
                request = self._queue.pop()
                if request is None:
                    break
                responses.append(self._process(request))
            return responses
        while max_requests is None or len(responses) < max_requests:
            budget = (
                window
                if max_requests is None
                else min(window, max_requests - len(responses))
            )
            batch: list[MatchRequest] = []
            while len(batch) < budget:
                request = self._queue.pop()
                if request is None:
                    break
                batch.append(request)
            if not batch:
                break
            responses.extend(self._process_batch(batch))
        return responses

    def serve(
        self, payloads: Iterable, *, deadline_s: float | None = None
    ) -> list[ServiceResponse]:
        """Submit-and-drain each payload in order (no queue pressure).

        With an empty queue this returns responses in payload order,
        which is the configuration the bit-identity guarantee against
        ``MemeMonitor.classify_batch`` is stated for.
        """
        responses: list[ServiceResponse] = []
        for payload in payloads:
            immediate = self.submit(payload, deadline_s=deadline_s)
            if immediate is not None:
                responses.append(immediate)
            responses.extend(self.drain())
        return responses

    @property
    def pending(self) -> int:
        """Requests admitted but not yet terminated."""
        return len(self._queue)

    def health(self) -> dict:
        """Operator snapshot: breaker, queue, index, counters."""
        return {
            "breaker": self.breaker.state if self.breaker else "disabled",
            "queue_depth": len(self._queue),
            "queue_peak": self._queue.peak_depth,
            "index_clusters": self.index_size,
            "dead_letters": len(self.dead_letters),
            "dead_letters_evicted": self.stats.dead_letters_evicted,
            "conserved": self.stats.reconciles(pending=self.pending),
            "stats": self.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fire(self, site: str, *, path: Path | None = None) -> None:
        if self.faults is not None:
            self.faults.fire(site, path=path)

    def _response(
        self, request: MatchRequest, status: str, start: float, **kwargs
    ) -> ServiceResponse:
        return ServiceResponse(
            request_id=request.request_id,
            status=status,
            latency_s=self.clock() - start,
            **kwargs,
        )

    def _dead_letter(
        self, request: MatchRequest, reason: str, start: float, attempts: int = 0
    ) -> ServiceResponse:
        self.stats.dead_lettered += 1
        self.dead_letters.append(
            DeadLetter(
                request_id=request.request_id,
                payload=repr(request.payload),
                reason=reason,
                time=self.clock(),
            )
        )
        if len(self.dead_letters) > self.config.max_dead_letters:
            del self.dead_letters[0]
            self.stats.dead_letters_evicted += 1
        return self._response(
            request, DEAD_LETTERED, start, reason=reason, attempts=attempts
        )

    def _process(self, request: MatchRequest) -> ServiceResponse:
        start = self.clock()
        deadline = (
            request.arrival_time + request.deadline_s
            if request.deadline_s is not None
            else None
        )
        if deadline is not None and start > deadline:
            self.stats.timed_out += 1
            return self._response(
                request, TIMED_OUT, start, reason="expired-in-queue"
            )

        try:
            value = _validate_payload(request.payload)
        except (TypeError, ValueError) as error:
            return self._dead_letter(request, f"invalid-input: {error}", start)

        probing = False
        if self.breaker is not None:
            if not self.breaker.allow():
                self.stats.shed += 1
                self.stats.breaker_fast_fails += 1
                return self._response(
                    request, SHED, start, reason="breaker-open"
                )
            probing = self.breaker.probing
            if probing:
                self.stats.probes += 1
        site = "serve:probe" if probing else "serve:classify"

        monitor = self._monitor  # one atomic read: reloads never tear a request
        attempts = 0

        def attempt() -> MonitorVerdict:
            nonlocal attempts
            attempts += 1
            self._fire(site)
            return monitor.classify_hash(value)

        try:
            outcome = retry_call(
                attempt,
                self.config.retry,
                sleep=self._sleep,
                rng=self._rng,
                clock=self.clock,
                deadline=deadline,
            )
        except DeadlineExceeded as error:
            # A latency symptom, not proof of backend sickness: the
            # breaker only counts attempt failures, recorded below.
            self.stats.retries += max(0, attempts - 1)
            self.stats.timed_out += 1
            return self._response(
                request, TIMED_OUT, start, reason=str(error), attempts=attempts
            )
        except (TypeError, ValueError) as error:
            # The monitor rejected the value: caller error, breaker unharmed.
            self.stats.retries += max(0, attempts - 1)
            return self._dead_letter(
                request, f"rejected: {error}", start, attempts
            )
        except Exception as error:
            self.stats.retries += max(0, attempts - 1)
            self._record_breaker_failure()
            return self._dead_letter(
                request,
                f"classify-failed: {type(error).__name__}: {error}",
                start,
                attempts,
            )
        self.stats.retries += max(0, attempts - 1)
        if self.breaker is not None:
            self.breaker.record_success()
        self.stats.served += 1
        verdict: MonitorVerdict = outcome.value
        return self._response(request, OK, start, verdict=verdict, attempts=attempts)

    def _process_batch(self, requests: list[MatchRequest]) -> list[ServiceResponse]:
        """Serve one coalesced drain window; terminal response per request.

        The per-request outcome ladder of :meth:`_process`, with the
        fixed costs hoisted to per-batch: one clock read stamps the
        drain, expiry and poison are partitioned up front, the breaker
        is consulted once, and the survivors share one vectorised
        ``classify_batch`` under one retry loop whose deadline is the
        latest per-request deadline.  Outcomes scatter back per
        request: a request whose deadline passed while the batch was
        being classified times out individually (``expired-in-batch``)
        even though its neighbours were served.

        Divergences from the per-request path, by design: the chaos /
        failure cadence is per batch attempt, not per request (one
        ``serve:classify`` fire, one breaker failure record, one
        retry schedule for the whole window), and a half-open breaker
        falls back to per-request processing so the probe protocol is
        unchanged.  Every request still terminates in exactly one
        accounted state — conservation is batch-size-invariant.
        """
        start = self.clock()
        n = len(requests)
        responses: list[ServiceResponse | None] = [None] * n
        deadlines = [
            request.arrival_time + request.deadline_s
            if request.deadline_s is not None
            else None
            for request in requests
        ]

        # 1. Requests that expired while queued.
        live: list[int] = []
        for position, deadline in enumerate(deadlines):
            if deadline is not None and start > deadline:
                self.stats.timed_out += 1
                responses[position] = self._response(
                    requests[position], TIMED_OUT, start, reason="expired-in-queue"
                )
            else:
                live.append(position)
        if not live:
            return responses

        # 2. Poison payloads.  Fast path: one vectorised sweep — its
        # success implies every payload passes the scalar check with
        # the same value.  Inputs only the scalar check accepts (e.g.
        # integral floats) or rejects take the per-request fallback,
        # which reproduces the scalar reasons exactly.
        values: np.ndarray | None = None
        try:
            values = _validated_hash_array(
                np.array([requests[i].payload for i in live], dtype=object)
            )
        except Exception:
            values = None
        if values is None:
            kept: list[int] = []
            scalars: list[int] = []
            for position in live:
                try:
                    scalars.append(
                        _validate_payload(requests[position].payload)
                    )
                    kept.append(position)
                except (TypeError, ValueError) as error:
                    responses[position] = self._dead_letter(
                        requests[position], f"invalid-input: {error}", start
                    )
            live = kept
            if not live:
                return responses
            values = np.array(scalars, dtype=np.uint64)

        # 3. One breaker read for the whole batch.
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
                # Half-open: probes are a per-request protocol (each
                # allow() admits one probe); coalescing them would turn
                # one success into len(live) recoveries.
                for position in live:
                    responses[position] = self._process(requests[position])
                return responses

        # 4. One vectorised classify under one retry loop.
        monitor = self._monitor  # one atomic read: reloads never tear a batch
        batch_deadline = None
        if all(deadlines[i] is not None for i in live):
            batch_deadline = max(deadlines[i] for i in live)
        attempts = 0

        def attempt() -> list[MonitorVerdict]:
            nonlocal attempts
            attempts += 1
            self._fire("serve:classify")
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
            # batch_deadline is the max per-request deadline, so its
            # expiry implies every live request's deadline passed too.
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
            self._record_breaker_failure()
            reason = f"classify-failed: {type(error).__name__}: {error}"
            for position in live:
                responses[position] = self._dead_letter(
                    requests[position], reason, start, attempts
                )
            return responses
        self.stats.retries += max(0, attempts - 1)
        if self.breaker is not None:
            self.breaker.record_success()

        # 5. Scatter verdicts back, re-checking each deadline once.
        verdicts: list[MonitorVerdict] = outcome.value
        now = self.clock()
        served = 0
        for position, verdict in zip(live, verdicts):
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
                served += 1
                responses[position] = self._response(
                    requests[position],
                    OK,
                    start,
                    verdict=verdict,
                    attempts=attempts,
                )
        self.stats.served += served
        return responses

    def _record_breaker_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()
            self.stats.breaker_opens = self.breaker.opens
