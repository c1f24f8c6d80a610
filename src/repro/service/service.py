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

import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from pathlib import Path
from threading import Lock
from typing import Callable, Iterable, NamedTuple

import numpy as np

from repro.core.faults import FaultInjector
from repro.core.monitor import MemeMonitor, MonitorVerdict, _validated_hash_array
from repro.core.results import PipelineResult
from repro.service.admission import AdmissionQueue
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.reload import load_index, validate_result
from repro.utils.retry import DeadlineExceeded, RetryPolicy, retry_call

__all__ = [
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


class ServiceResponse(NamedTuple):
    """Terminal record for one request: exactly one of the four states.

    ``latency_s`` is stamped once per drain window — the time the
    window took to serve, shared by every request it terminated — and
    is 0.0 for a request shed at admission.
    """

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
        one; ``None`` disables deadlines (NaN or negative: rejected).
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
        Requests per drain window (>= 1), each served with one breaker
        check and one ``classify_batch`` call; a request whose deadline
        expires mid-window still times out on its own.  The default
        window of one is per-request serving.
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
    coalesce_window: int = 1

    def __post_init__(self) -> None:
        if self.coalesce_window is None or self.coalesce_window < 1:
            raise ValueError("coalesce_window must be an integer >= 1")
        if self.max_dead_letters < 0:
            raise ValueError("max_dead_letters must be >= 0")
        _check_deadline(self.default_deadline_s)


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
        return asdict(self)


def _check_deadline(deadline_s: float | None) -> None:
    """Reject NaN and negative budgets: a NaN deadline would never expire."""
    if deadline_s is not None and not deadline_s >= 0:
        raise ValueError(
            f"deadline_s must be a non-negative number or None, got {deadline_s!r}"
        )


def _hash_column(payloads) -> tuple[np.ndarray, dict[int, tuple[str, str]]]:
    """A burst's pHashes as uint64, and ``(reason, repr)`` by position of poison.

    Only an unsigned array or a burst of non-negative plain ``int``
    converts in one call: numpy would parse ``"010"``, turn ``True`` into
    1, carry ``[2**63, 1]`` through float64 and, before numpy 2, wrap
    ``-1`` to ``2**64 - 1``.  Any other burst, or one with an int too
    large, is checked item by item by the monitor's batch rule on a
    one-cell object array, as ``MemeMonitor.classify_hash`` does: only
    integers in ``[0, 2**64)`` pass (no floats, bools, text or bytes).
    """
    unsigned = isinstance(payloads, np.ndarray) and payloads.dtype.kind == "u"
    if unsigned and payloads.ndim == 1:
        return payloads.astype(np.uint64), {}
    if not isinstance(payloads, list):
        payloads = list(payloads)
    if set(map(type, payloads)) <= {int} and min(payloads, default=0) >= 0:
        try:
            return np.array(payloads, dtype=np.uint64), {}
        except OverflowError:
            pass
    values, poison = [], {}
    cell = np.empty(1, dtype=object)
    for position, payload in enumerate(payloads):
        if type(payload) is int and 0 <= payload < 2**64:
            values.append(payload)  # what the rule accepts, without numpy
            continue
        cell[0] = payload
        try:
            values.append(_validated_hash_array(cell)[0])
        except (TypeError, ValueError) as error:
            values.append(0)  # never classified
            poison[position] = (f"invalid-input: {error}", repr(payload))
    return np.array(values, dtype=np.uint64), poison


def _fill(column: list, rows, value, *, each: bool = False) -> None:
    """``column[rows] = value``: ``rows`` None for all, ``each`` for one per row."""
    if rows is None:
        column[:] = value if each else [value] * len(column)
    else:
        for row, item in zip(rows.tolist(), value if each else repeat(value)):
            column[row] = item


class _Requests:
    """Queued requests as columns: a burst, a slice of one, or a window.

    ``ids`` is a range (a list in a window of several bursts), ``values``
    the validated uint64 hashes (0 for poison), and ``deadline`` the
    absolute expiry time of every row (``inf`` for none), or an array of
    them in a window of several bursts; ``earliest`` and ``latest``
    bound it.  ``letters`` maps each poison row to its
    ``(reason, repr(payload))``.
    """

    __slots__ = ("ids", "values", "deadline", "letters", "earliest", "latest")

    def __init__(self, ids, values, deadline, letters) -> None:
        self.ids, self.values, self.deadline = ids, values, deadline
        self.letters = letters
        many = isinstance(deadline, np.ndarray)
        self.earliest = float(deadline.min()) if many else deadline
        self.latest = float(deadline.max()) if many else deadline

    def __len__(self) -> int:
        return len(self.ids)

    def deadlines(self) -> np.ndarray:
        """The deadline of every row."""
        return np.broadcast_to(self.deadline, len(self.ids))

    def __getitem__(self, index: slice) -> "_Requests":
        deadline = self.deadline
        if isinstance(deadline, np.ndarray):
            deadline = deadline[index]
        start, stop, _ = index.indices(len(self))
        letters = {r - start: v for r, v in self.letters.items() if start <= r < stop}
        return _Requests(self.ids[index], self.values[index], deadline, letters)

    @classmethod
    def concat(cls, parts: list["_Requests"]) -> "_Requests":
        """The rows of ``parts`` in order, as one window."""
        if len(parts) == 1:
            return parts[0]
        letters, offset = {}, 0
        for part in parts:
            letters.update((offset + r, v) for r, v in part.letters.items())
            offset += len(part)
        return cls(
            list(chain.from_iterable(part.ids for part in parts)),
            np.concatenate([part.values for part in parts]),
            np.concatenate([part.deadlines() for part in parts]),
            letters,
        )


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
        self.dead_letters = deque(maxlen=self.config.max_dead_letters)
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
        self, payload, *, deadline_s: float | None = None
    ) -> ServiceResponse | None:
        """Admit one request, or shed it immediately: a burst of one.

        Returns the terminal :class:`ServiceResponse` when the request
        was shed at admission (backpressure), else ``None`` — the
        request is queued and will terminate via :meth:`drain`.
        """
        return self.submit_many([payload], deadline_s=deadline_s)[0]

    def submit_many(
        self, payloads: Iterable, *, deadline_s: float | None = None
    ) -> list[ServiceResponse | None]:
        """Admit a burst as one chunk of columns, with one clock read.

        Returns a list aligned with ``payloads``: the terminal SHED
        response where a request was rejected at admission, ``None``
        where it was queued (poison too) to terminate via :meth:`drain`.
        ``submitted`` grows by ``len(payloads)``, split exactly between
        ``shed`` and the requests now pending.
        """
        _check_deadline(deadline_s)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        values, letters = _hash_column(payloads)
        n = values.size
        arrival = self.clock()
        base = self._next_id
        self._next_id = base + n
        self.stats.submitted += n
        deadline = math.inf if deadline_s is None else arrival + deadline_s
        admitted, reason = self._queue.offer_many(
            _Requests(range(base, base + n), values, deadline, letters)
        )
        self.stats.admitted += admitted
        self.stats.shed += n - admitted
        ids = range(base + admitted, base + n)
        return [None] * admitted + [ServiceResponse(i, SHED, None, reason) for i in ids]

    def drain(self, max_requests: int | None = None) -> list[ServiceResponse]:
        """One terminal response per queued request, FIFO.

        Requests are popped as column slices in windows of up to
        :attr:`ServiceConfig.coalesce_window`, one :meth:`_process_batch`
        call each.
        """
        responses: list[ServiceResponse] = []
        window = self.config.coalesce_window
        while max_requests is None or len(responses) < max_requests:
            budget = (
                window
                if max_requests is None
                else min(window, max_requests - len(responses))
            )
            parts = self._queue.pop(budget)
            if not parts:
                break
            responses += self._process_batch(_Requests.concat(parts))
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

    def _dead_letter(self, window: _Requests, rows, reasons, reprs, when) -> None:
        """Quarantine ``window``'s ``rows``; the deque drops the oldest."""
        rows = rows.tolist()
        self.stats.dead_lettered += len(rows)
        self.stats.dead_letters_evicted += max(
            0, len(self.dead_letters) + len(rows) - self.config.max_dead_letters
        )
        self.dead_letters.extend(
            DeadLetter(window.ids[row], payload, why, when)
            for row, why, payload in zip(rows, reasons, reprs)
        )

    def _process_batch(self, window: _Requests) -> list[ServiceResponse]:
        """Serve one drain window; terminal response per request.

        The window is partitioned with array operations, in order: rows
        that expired in the queue, poison payloads, one breaker read for
        the rest, then one ``classify_batch`` of them under one retry
        loop whose deadline is the latest of theirs, and last the rows
        whose deadline passed meanwhile (``expired-in-batch``).  Outcomes
        go to status, verdict, reason and attempts columns, stats move
        by counts, and the window's responses share one latency stamp.

        Faults, breaker failures and retries count per window attempt,
        so a window of one is per-request serving, step for step.  A
        half-open breaker admits one probe per ``allow()``, so a probing
        window of several requests is served as windows of one.
        """
        start = self.clock()
        n = len(window)
        # Outcome columns, in ServiceResponse field order after the id.
        status, verdict, reason, attempts = [OK] * n, [None] * n, [None] * n, [0] * n

        def end(rows, state: str, why, *, each: bool = False) -> None:
            _fill(status, rows, state)
            _fill(reason, rows, why, each=each)

        def responses(latency: float) -> list[ServiceResponse]:
            # tuple.__new__ builds each response from its row, in field order.
            rows = zip(window.ids, status, verdict, reason, attempts, repeat(latency))
            return list(map(tuple.__new__, repeat(ServiceResponse), rows))

        # 1. Requests that expired while queued.  ``live`` masks the rows
        # still served; None while that is every row, so the common
        # window writes whole columns (faster than an index array of
        # live rows from the start; DESIGN.md §7 has the measurement).
        live = None
        if start > window.earliest:
            live = start <= window.deadlines()
            rows = np.flatnonzero(~live)
            end(rows, TIMED_OUT, "expired-in-queue")
            self.stats.timed_out += rows.size

        # 2. Poison payloads, each with its own dead-letter reason.
        if window.letters:
            bad = np.zeros(n, dtype=bool)
            bad[list(window.letters)] = True
            rows = np.flatnonzero(bad if live is None else bad & live)
            if rows.size:
                reasons, reprs = zip(*map(window.letters.get, rows.tolist()))
                end(rows, DEAD_LETTERED, reasons, each=True)
                self._dead_letter(window, rows, reasons, reprs, start)
                live = ~bad if live is None else live & ~bad
        rows = None if live is None else np.flatnonzero(live)
        count = n if rows is None else rows.size
        if not count:
            return responses(self.clock() - start)
        values = window.values if rows is None else window.values[rows]

        # 3. One breaker read for the whole window.
        site = "serve:classify"
        if self.breaker is not None:
            if not self.breaker.allow():
                self.stats.shed += count
                self.stats.breaker_fast_fails += count
                end(rows, SHED, "breaker-open")
                return responses(self.clock() - start)
            if self.breaker.probing:
                if count > 1:
                    # Coalescing probes would turn one success into
                    # `count` recoveries.
                    out = responses(self.clock() - start)
                    for row in range(n) if rows is None else rows.tolist():
                        [out[row]] = self._process_batch(window[row : row + 1])
                    return out
                self.stats.probes += 1
                site = "serve:probe"

        # 4. One vectorised classify under one retry loop.
        monitor = self._monitor  # one atomic read: reloads never tear a window
        latest = window.latest if rows is None else window.deadlines()[rows].max()
        tries = 0

        def attempt() -> list[MonitorVerdict]:
            nonlocal tries
            tries += 1
            self._fire(site)
            return monitor.classify_batch(values)

        try:
            outcome = retry_call(
                attempt,
                self.config.retry,
                sleep=self._sleep,
                rng=self._rng,
                clock=self.clock,
                deadline=None if latest == math.inf else float(latest),
            )
        except Exception as error:
            now = self.clock()
            self.stats.retries += max(0, tries - 1)
            _fill(attempts, rows, tries)
            if isinstance(error, DeadlineExceeded):
                # The retry deadline is the latest live deadline, so its
                # expiry implies every live request's deadline passed too.
                self.stats.timed_out += count
                end(rows, TIMED_OUT, str(error))
                return responses(now - start)
            if isinstance(error, (TypeError, ValueError)):
                why = f"rejected: {error}"
            else:
                self._record_breaker_failure()
                why = f"classify-failed: {type(error).__name__}: {error}"
            end(rows, DEAD_LETTERED, why)
            reprs = map(repr, values.tolist())
            live_rows = np.arange(n) if rows is None else rows
            self._dead_letter(window, live_rows, repeat(why), reprs, now)
            return responses(now - start)
        self.stats.retries += max(0, tries - 1)
        if self.breaker is not None:
            self.breaker.record_success()

        # 5. Scatter verdicts back, re-checking the deadlines once.
        now = self.clock()
        _fill(attempts, rows, tries)
        _fill(verdict, rows, outcome.value, each=True)
        late = 0
        if now > window.earliest:
            expired = now > window.deadlines()
            late_rows = np.flatnonzero(expired if live is None else expired & live)
            end(late_rows, TIMED_OUT, "expired-in-batch")
            _fill(verdict, late_rows, None)
            late = late_rows.size
            self.stats.timed_out += late
        self.stats.served += count - late
        return responses(now - start)

    def _record_breaker_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()
            self.stats.breaker_opens = self.breaker.opens
