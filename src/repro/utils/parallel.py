"""Parallel execution layer for the pipeline's hot paths.

The paper ran its all-pairs comparisons and per-cluster Hawkes fits on a
two-GPU TensorFlow rig; the laptop-scale reproduction instead shards its
embarrassingly-parallel hot paths — radius neighbourhoods,
nearest-medoid association, per-cluster fits — over a small executor
abstraction with three interchangeable backends:

* ``serial`` — a plain loop in the calling thread.  The default, and
  the reference semantics every other backend must reproduce.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Effective for numpy-heavy work that releases the GIL; zero
  serialisation cost.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Work items are pickled to the workers, so hot paths hand over compact
  numpy shards (a ``uint64`` hash array plus a query range) rather than
  live index objects; worker functions must be module-level.

**Determinism guarantee.** Results are returned in *submission* order
regardless of completion order (futures are collected in order, never
``as_completed``), and every shard kernel produces output identical to
the serial path.  ``--workers N`` therefore changes wall time, never
results; the property tests in ``tests/test_parallel_identity.py`` pin
this bit-for-bit.

Configuration resolves in three steps: an explicit
:class:`ParallelConfig` wins; otherwise the ``REPRO_WORKERS`` /
``REPRO_PARALLEL_BACKEND`` environment variables apply (this is how CI
runs the whole tier-1 suite under 2 workers); otherwise everything runs
serially, bit-identical to the historical single-core behaviour.

**Supervised execution.** At the paper's scale (160M images, 12.6K
cluster fits) a fan-out that aborts on the first worker exception is
operationally unacceptable — a hung worker stalls the run forever and a
single poison shard costs hours of recomputation.
:meth:`Executor.supervised_starmap`, the one fan-out entry point, runs
every shard under a supervision ladder:

1. **deadline** — futures are polled with timeouts, never blocking
   ``result()``; a shard past ``SupervisionPolicy.shard_deadline_s`` is
   declared hung and handed to the rescue ladder (pool backends only —
   a serial shard cannot be preempted);
2. **retry** — the failed shard is re-submitted to a *fresh* pool under
   a :class:`repro.utils.retry.RetryPolicy` (worker-death via
   ``BrokenExecutor`` is just another retryable failure);
3. **bisection re-sharding** — a shard that keeps failing is split via
   the caller's ``split`` function and each half walks the ladder
   independently, so one poison item cannot sink its whole shard and an
   allocation-bound failure gets a smaller working set;
4. **serial fallback** — the shard runs in the calling process,
   sidestepping pool pathologies (pickling, worker death) entirely;
5. **quarantine** — a shard that fails even serially is *poison*:
   depending on ``on_poison`` the run either fails fast
   (:class:`PoisonShardError`, naming the shard) or records the shard
   as a gap (``None`` in the result list) and carries on.

Every shard's history (attempts, backend, duration, outcome, error
trail) lands in a :class:`ShardReport`; the whole fan-out aggregates
into an :class:`ExecutionReport` that callers can inspect and the
staged runner threads into its ``StageReport``s.  Salvaged results stay
submission-ordered and bit-identical to serial for every surviving
shard; quarantined shards surface as explicit gaps, never silent
truncation.

Chaos hooks: the executor consults an optional ``chaos(site)`` callable
(``"parallel:shard"`` then ``"parallel:worker"``) before every shard
attempt.  :meth:`repro.core.faults.FaultInjector.parallel_directive`
implements the hook — raise-type faults raise right there in the
parent, while ``hang``/``kill`` faults return a :class:`ChaosDirective`
that ships into the worker (sleep past the deadline / ``os._exit``),
so hang detection and worker-death recovery are testable end to end.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent import futures as _futures
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence, TypeVar

from repro.utils.retry import RetryPolicy, retry_call

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "ENV_WORKERS",
    "ChaosDirective",
    "DEFAULT_CHAOS_SITES",
    "ExecutionReport",
    "Executor",
    "ParallelConfig",
    "PoisonShardError",
    "ShardReport",
    "SupervisedResult",
    "SupervisionPolicy",
    "array_splitter",
    "available_cpus",
    "effective_workers",
    "range_splitter",
    "resolve_parallel",
    "shard_bounds",
    "strict_supervision",
    "warn_if_oversubscribed",
]

R = TypeVar("R")

BACKENDS = ("auto", "serial", "thread", "process")

ENV_WORKERS = "REPRO_WORKERS"
ENV_BACKEND = "REPRO_PARALLEL_BACKEND"


def _visible_cpus() -> int | None:
    """Affinity-aware CPU count, or ``None`` when unknowable."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
            if affinity > 0:
                return affinity
        except OSError:
            pass
    return os.cpu_count()


def available_cpus() -> int:
    """CPUs this *process* may actually run on.

    ``os.cpu_count()`` reports the machine's cores and ignores cgroup
    and affinity limits — in a container pinned to 2 of 64 cores it
    says 64, so worker clamping would cap at 64 and the
    oversubscription warning would never fire.  The scheduler affinity
    mask is the truth on Linux; platforms without it fall back to the
    core count, and a host where neither is knowable counts as 1.
    """
    return _visible_cpus() or 1


def effective_workers(workers: int) -> int:
    """Workers that can actually run concurrently on this host.

    CPU-bound kernels (everything in this codebase) gain nothing from
    more workers than cores; process workers *lose* (extra pickling and
    context switching for zero extra parallelism).  "Cores" means the
    affinity-aware :func:`available_cpus`, not the raw machine count;
    when neither source knows, the requested count stands.
    """
    workers = int(workers)
    return max(1, min(workers, _visible_cpus() or workers))


def warn_if_oversubscribed(workers: int, *, source: str) -> int:
    """Warn when a requested worker count exceeds :func:`available_cpus`.

    BENCH_parallel.json once recorded ``workers=4`` on a
    ``cpu_count=1`` host with sub-1x "speedups" and no signal of why;
    this surfaces the oversubscription as a :class:`RuntimeWarning` at
    configuration time.  Returns the effective (capped) worker count so
    callers can record it alongside the requested one.
    """
    cpu = _visible_cpus()
    if cpu is not None and workers > cpu:
        warnings.warn(
            f"{source} requests {workers} workers but this host has "
            f"{cpu} CPU(s); CPU-bound fan-outs cannot run more than "
            f"{cpu} shard(s) at once (effective parallelism {cpu})",
            RuntimeWarning,
            stacklevel=3,
        )
    return effective_workers(workers)


@dataclass(frozen=True)
class ParallelConfig:
    """How a hot path should fan out.

    Attributes
    ----------
    workers:
        Worker count; 1 means serial execution (the default).
    backend:
        ``"serial"``, ``"thread"``, ``"process"``, or ``"auto"``
        (serial when ``workers == 1``, otherwise process — the only
        backend that sidesteps the GIL for pure-Python kernels).
    supervision:
        Optional :class:`SupervisionPolicy` the hot paths apply to
        their supervised fan-outs.  ``None`` means each call site's
        default policy.  Carried here so it travels wherever the
        parallel config already flows (runner → dbscan →
        ``radius_neighbors``) without new plumbing.
    chaos:
        Optional chaos hook ``(site: str) -> ChaosDirective | None``
        consulted before every supervised shard attempt; see
        :meth:`repro.core.faults.FaultInjector.parallel_directive`.
        Test/drill only; never pickled to workers.
    """

    workers: int = 1
    backend: str = "auto"
    supervision: "SupervisionPolicy | None" = None
    chaos: Callable[[str], "ChaosDirective | None"] | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )

    def resolved_backend(self) -> str:
        """The concrete backend after ``auto`` resolution."""
        if self.backend == "auto":
            return "serial" if self.workers <= 1 else "process"
        return self.backend

    @property
    def is_serial(self) -> bool:
        """True when execution degenerates to a plain loop."""
        return self.workers <= 1 or self.resolved_backend() == "serial"

    @classmethod
    def from_env(cls, env=None) -> "ParallelConfig":
        """Config from ``REPRO_WORKERS`` / ``REPRO_PARALLEL_BACKEND``.

        Unset or malformed variables fall back to the serial default, so
        library behaviour never changes unless explicitly requested —
        but a *malformed* value (not an integer, or not positive) is an
        operator error worth surfacing, so it emits a
        :class:`RuntimeWarning` naming the bad value instead of being
        silently swallowed.
        """
        env = os.environ if env is None else env
        raw_workers = env.get(ENV_WORKERS, "")
        try:
            workers = int(raw_workers or 1)
            problem = None if workers >= 1 else "not positive"
        except ValueError:
            problem = "not an integer"
        if problem is not None:
            warnings.warn(
                f"ignoring malformed {ENV_WORKERS}={raw_workers!r} "
                f"({problem}); falling back to serial (workers=1)",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
        backend = env.get(ENV_BACKEND, "") or "auto"
        if backend not in BACKENDS:
            warnings.warn(
                f"ignoring malformed {ENV_BACKEND}={backend!r}; expected "
                f"one of {BACKENDS}; falling back to 'auto'",
                RuntimeWarning,
                stacklevel=2,
            )
            backend = "auto"
        if workers > 1:
            warn_if_oversubscribed(workers, source=ENV_WORKERS)
        return cls(workers=workers, backend=backend)


def resolve_parallel(parallel: ParallelConfig | None) -> ParallelConfig:
    """An explicit config wins; ``None`` falls back to the environment."""
    return ParallelConfig.from_env() if parallel is None else parallel


def shard_bounds(
    n_items: int, parallel: ParallelConfig
) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` shards covering ``range(n_items)``.

    Process shards are worker-sized (each task ships a pickled numpy
    shard, so fewer/larger is cheaper); thread and serial shards are a
    quarter of that (finer grain smooths uneven per-item cost).
    """
    if n_items <= 0:
        return []
    oversubscribe = 1 if parallel.resolved_backend() == "process" else 4
    size = max(1, -(-n_items // (parallel.workers * oversubscribe)))
    return [
        (start, min(start + size, n_items))
        for start in range(0, n_items, size)
    ]


# ----------------------------------------------------------------------
# Supervision: policies, reports, chaos plumbing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosDirective:
    """Worker-side chaos a hook asks the executor to inject.

    ``action="hang"`` makes the worker sleep ``delay_s`` before
    computing (stalling past a shard deadline when ``delay_s`` exceeds
    it); ``action="kill"`` makes a process worker ``os._exit`` —
    breaking the whole pool, exactly like an OOM-killed worker — and
    degrades to a raised ``RuntimeError`` on thread/serial backends
    where killing the worker would kill the interpreter.
    """

    action: str
    delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.action not in ("hang", "kill"):
            raise ValueError(f"unknown chaos action {self.action!r}")


class PoisonShardError(RuntimeError):
    """A shard failed the entire supervision ladder under ``on_poison="fail"``.

    Carries the shard's submission index and the :class:`ExecutionReport`
    so far; the final underlying error is chained as ``__cause__``.
    """

    def __init__(
        self, shard_index: int, cause: BaseException, report: "ExecutionReport"
    ) -> None:
        super().__init__(
            f"shard {shard_index} failed permanently after the supervision "
            f"ladder (retry, bisect, serial fallback): "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard_index = shard_index
        self.report = report


@dataclass(frozen=True)
class SupervisionPolicy:
    """How :meth:`Executor.supervised_starmap` handles failing shards.

    Attributes
    ----------
    shard_deadline_s:
        Per-shard deadline in seconds; a shard whose future has not
        resolved within it is declared hung and rescued.  ``None``
        disables hang detection.  The clock for shard *i* starts once
        every earlier shard has been collected, so a deep queue behind
        one slow worker does not mass-expire.
    retry:
        :class:`repro.utils.retry.RetryPolicy` of the fresh-pool retry
        rung.  ``retryable`` defaults to ``(Exception,)`` because *any*
        shard failure — hang timeout, worker death, a raising kernel —
        deserves the ladder; ``KeyboardInterrupt``/``SystemExit`` are
        never retried regardless.
    bisect:
        Whether a still-failing shard is split via the caller's
        ``split`` function and each half retried independently.
    max_bisect_depth:
        Recursion bound on bisection (2 → a shard shrinks at most 4×),
        capping the worst-case attempt count on deterministic poison.
    serial_fallback:
        Whether the last rung runs the shard in the calling process.
    on_poison:
        ``"fail"`` raises :class:`PoisonShardError` at the first shard
        that exhausts the ladder; ``"quarantine"`` records a gap
        (``None`` result) and keeps going.
    """

    shard_deadline_s: float | None = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=1, base_delay=0.01, retryable=(Exception,)
        )
    )
    bisect: bool = True
    max_bisect_depth: int = 2
    serial_fallback: bool = True
    on_poison: str = "quarantine"

    def __post_init__(self) -> None:
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive")
        if self.max_bisect_depth < 0:
            raise ValueError("max_bisect_depth must be >= 0")
        if self.on_poison not in ("fail", "quarantine"):
            raise ValueError(
                f"on_poison must be 'fail' or 'quarantine', got {self.on_poison!r}"
            )


@dataclass
class ShardReport:
    """Supervision history of one submitted shard.

    ``outcome`` is the final classification: ``"ok"`` (first attempt),
    ``"retried"`` (fresh-pool retry rung), ``"bisected"`` (recovered
    by re-sharding), ``"serial"`` (serial fallback),
    ``"quarantined"`` (poison; its result slot is a gap).  ``errors``
    is the chronological trail of everything that went wrong on the
    way.
    """

    index: int
    backend: str = "serial"
    attempts: int = 0
    outcome: str = "pending"
    duration_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """Failed at least once but produced its result anyway."""
        return self.outcome in ("retried", "bisected", "serial")


@dataclass
class ExecutionReport:
    """Aggregate of one supervised fan-out, one :class:`ShardReport` each."""

    backend: str
    workers: int
    shards: list[ShardReport] = field(default_factory=list)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def retried(self) -> list[int]:
        """Indices of shards that failed at least once but recovered."""
        return [s.index for s in self.shards if s.recovered]

    @property
    def quarantined(self) -> list[int]:
        """Indices of poison shards whose result slot is a gap."""
        return [s.index for s in self.shards if s.outcome == "quarantined"]

    @property
    def complete(self) -> bool:
        return not self.quarantined

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for shard in self.shards:
            counts[shard.outcome] = counts.get(shard.outcome, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line digest, e.g. ``process x4: 9 shards (ok=8 retried=1)``."""
        counts = " ".join(
            f"{outcome}={n}" for outcome, n in sorted(self.outcome_counts().items())
        )
        return f"{self.backend} x{self.workers}: {self.n_shards} shards ({counts})"


@dataclass
class SupervisedResult:
    """What a supervised fan-out produced: results (with gaps) + report.

    ``results[i]`` is shard *i*'s value, or ``None`` when the shard was
    quarantined (``report.quarantined`` lists exactly those indices —
    gaps are always explicit, never silently dropped).
    """

    results: list
    report: ExecutionReport

    @property
    def complete(self) -> bool:
        return self.report.complete


def strict_supervision(parallel: ParallelConfig) -> SupervisionPolicy:
    """The effective policy for gap-intolerant kernel call sites.

    Array kernels (Hamming matrix rows, neighbour lists, association
    columns) have no way to represent a quarantined shard — a hole in
    the output array is structurally meaningless — so they run the full
    rescue ladder but force ``on_poison="fail"``: true poison raises
    :class:`PoisonShardError` for the *caller's* quarantine machinery
    (e.g. the staged runner's per-community quarantine) to absorb at a
    granularity where a gap means something.
    """
    policy = parallel.supervision or SupervisionPolicy()
    return replace(policy, on_poison="fail")


def range_splitter(start_pos: int, stop_pos: int):
    """Bisect a ``(.., start, .., stop, ..)`` range call at its midpoint.

    For shard kernels of the form ``fn(data, start, stop, ...)`` whose
    output for ``start:stop`` equals the concatenation of the outputs
    for ``start:mid`` and ``mid:stop``.  Returns ``None`` for
    single-item (unsplittable) ranges.
    """

    def split(args: tuple) -> list[tuple] | None:
        start, stop = args[start_pos], args[stop_pos]
        if stop - start <= 1:
            return None
        mid = (start + stop) // 2
        left, right = list(args), list(args)
        left[stop_pos] = mid
        right[start_pos] = mid
        return [tuple(left), tuple(right)]

    return split


def array_splitter(pos: int = 0):
    """Bisect the sliceable argument at ``pos`` (numpy array or list).

    For shard kernels that map an input array to an output whose halves
    concatenate to the whole.  Returns ``None`` when the argument has
    one element or fewer.
    """

    def split(args: tuple) -> list[tuple] | None:
        arr = args[pos]
        n = len(arr)
        if n <= 1:
            return None
        mid = n // 2
        left, right = list(args), list(args)
        left[pos] = arr[:mid]
        right[pos] = arr[mid:]
        return [tuple(left), tuple(right)]

    return split


def _chaos_call(fn: Callable[..., R], args: tuple, action: str, delay_s: float) -> R:
    """Worker-side chaos wrapper (module-level so process workers pickle it).

    ``hang`` stalls, then computes anyway — if the deadline is generous
    the shard recovers, otherwise the parent has already moved on and
    the late result is discarded.  ``kill`` exits the worker process
    without cleanup, which the parent observes as ``BrokenProcessPool``.
    """
    if action == "hang":
        time.sleep(delay_s)
        return fn(*args)
    if action == "kill":
        os._exit(17)
    raise AssertionError(f"unknown chaos action {action!r}")  # pragma: no cover


def _simulated_death(fn: Callable[..., R], args: tuple) -> R:
    """Thread/serial stand-in for a killed worker (``os._exit`` would take
    the whole interpreter down there)."""
    raise RuntimeError("simulated worker death")


DEFAULT_CHAOS_SITES = ("parallel:shard", "parallel:worker")


def _consult_chaos(chaos) -> ChaosDirective | None:
    """Fire the chaos sites for one shard attempt; raising faults propagate."""
    if chaos is None:
        return None
    directive = None
    for site in DEFAULT_CHAOS_SITES:
        directive = chaos(site)
        if directive is not None:
            break
    return directive


def _error_text(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _new_pool(backend: str, workers: int) -> _futures.Executor:
    """A fresh thread or process pool; process workers get pickled tasks."""
    pool_cls = (
        ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor
    )
    return pool_cls(max_workers=workers)


class Executor:
    """Ordered, supervised fan-out over the configured backend.

    :meth:`supervised_starmap` submits every item up front and collects
    results in submission order, so output ordering is deterministic no
    matter which worker finishes first.  Failing shards walk the
    supervision ladder (deadline → retry → bisect → serial fallback →
    quarantine; see the module docstring).
    """

    def __init__(self, parallel: ParallelConfig | None = None) -> None:
        self.parallel = resolve_parallel(parallel)

    def supervised_starmap(
        self,
        fn: Callable[..., R],
        items: Iterable[Sequence],
        *,
        policy: SupervisionPolicy | None = None,
        split: Callable[[tuple], list[tuple] | None] | None = None,
        merge: Callable[[list], R] | None = None,
        chaos: Callable[[str], ChaosDirective | None] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> SupervisedResult:
        """``[fn(*args) for args in items]`` under the supervision ladder.

        Parameters
        ----------
        policy:
            Overrides ``parallel.supervision`` (which overrides the
            default :class:`SupervisionPolicy`).
        split / merge:
            Shard bisection pair: ``split(args)`` returns sub-call arg
            tuples (or ``None`` when unsplittable) and ``merge(values)``
            reassembles their outputs into the value the original call
            would have produced.  Both or neither must be given;
            without them the bisection rung is skipped.
        chaos:
            Overrides ``parallel.chaos`` (test/drill hook).
        sleep:
            Injected into :func:`repro.utils.retry.retry_call` so tests
            can skip real backoff sleeps.

        Returns a :class:`SupervisedResult` whose ``results`` align
        1:1 with the submitted calls; quarantined shards hold ``None``.
        Raises :class:`PoisonShardError` instead when the policy says
        ``on_poison="fail"``.
        """
        if (split is None) != (merge is None):
            raise ValueError("split and merge must be provided together")
        calls = [tuple(args) for args in items]
        if policy is None:
            policy = self.parallel.supervision or SupervisionPolicy()
        if chaos is None:
            chaos = self.parallel.chaos
        backend = self.parallel.resolved_backend()
        workers = min(self.parallel.workers, max(1, len(calls)))
        report = ExecutionReport(backend=backend, workers=workers)
        if not calls:
            return SupervisedResult(results=[], report=report)
        report.shards = [
            ShardReport(index=i, backend=backend) for i in range(len(calls))
        ]

        results: list = [None] * len(calls)
        failed: dict[int, BaseException] = {}
        if backend == "serial" or workers <= 1:
            self._first_wave_serial(fn, calls, report, chaos, results, failed)
        else:
            self._first_wave_pooled(
                fn, calls, report, policy, chaos, results, failed, workers
            )

        for index in sorted(failed):
            shard = report.shards[index]
            try:
                results[index] = self._rescue(
                    fn, calls[index], shard, policy, split, merge, chaos,
                    depth=0, sleep=sleep,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                shard.outcome = "quarantined"
                if policy.on_poison == "fail":
                    raise PoisonShardError(index, error, report) from error
                results[index] = None
        return SupervisedResult(results=results, report=report)

    def _first_wave_serial(
        self, fn, calls, report, chaos, results, failed
    ) -> None:
        """Serial first wave: plain in-process calls, chaos honoured."""
        for index, args in enumerate(calls):
            shard = report.shards[index]
            started = time.perf_counter()
            try:
                results[index] = self._attempt_once(
                    fn, args, shard, None, chaos, use_pool=False
                )
                shard.outcome = "ok"
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                shard.errors.append(_error_text(error))
                failed[index] = error
            finally:
                shard.duration_s += time.perf_counter() - started

    def _first_wave_pooled(
        self, fn, calls, report, policy, chaos, results, failed, workers
    ) -> None:
        """Pooled first wave: submit everything, collect in submission
        order with per-shard deadlines, survive worker death.

        The shared pool is shut down without waiting when a shard hung
        or the pool broke (a ``with`` block would join the hung worker
        and stall the parent — the exact pathology supervision exists
        to prevent).
        """
        backend = self.parallel.resolved_backend()
        pool = _new_pool(backend, workers)
        dirty = False  # hung or broken: don't join workers on shutdown
        try:
            futures: list[_futures.Future | None] = [None] * len(calls)
            for index, args in enumerate(calls):
                shard = report.shards[index]
                shard.attempts += 1
                try:
                    directive = _consult_chaos(chaos)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    shard.errors.append(_error_text(error))
                    failed[index] = error
                    continue
                try:
                    futures[index] = self._submit(
                        pool, fn, args, directive, backend
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except _futures.BrokenExecutor as error:
                    # A worker died while we were still submitting (the
                    # pool breaks mid-loop); every later submit raises
                    # too.  Fail each shard individually — the rescue
                    # ladder re-runs them on fresh pools.
                    dirty = True
                    shard.errors.append(_error_text(error))
                    failed[index] = error
                except Exception as error:
                    shard.errors.append(_error_text(error))
                    failed[index] = error
            for index, future in enumerate(futures):
                if future is None:
                    continue
                shard = report.shards[index]
                started = time.perf_counter()
                try:
                    results[index] = future.result(
                        timeout=policy.shard_deadline_s
                    )
                    shard.outcome = "ok"
                except (KeyboardInterrupt, SystemExit):
                    raise
                except _futures.TimeoutError as error:
                    dirty = True
                    future.cancel()
                    hang = TimeoutError(
                        f"shard {index} exceeded deadline "
                        f"{policy.shard_deadline_s}s"
                    )
                    hang.__cause__ = error
                    shard.errors.append(_error_text(hang))
                    failed[index] = hang
                except _futures.BrokenExecutor as error:
                    dirty = True
                    shard.errors.append(_error_text(error))
                    failed[index] = error
                except Exception as error:
                    shard.errors.append(_error_text(error))
                    failed[index] = error
                finally:
                    shard.duration_s += time.perf_counter() - started
        finally:
            pool.shutdown(wait=not dirty, cancel_futures=True)

    @staticmethod
    def _submit(pool, fn, args, directive, backend) -> _futures.Future:
        if directive is None:
            return pool.submit(fn, *args)
        if directive.action == "kill" and backend != "process":
            return pool.submit(_simulated_death, fn, args)
        return pool.submit(
            _chaos_call, fn, args, directive.action, directive.delay_s
        )

    def _rescue(
        self, fn, args, shard, policy, split, merge, chaos, depth, sleep
    ):
        """Walk a failed shard down the rescue ladder; return its value.

        Raises the final underlying error when every rung fails.
        ``shard.outcome`` is only classified at ``depth == 0`` — the
        recursive bisection halves contribute attempts and errors to
        the same report but not an outcome of their own.
        """
        started = time.perf_counter()
        try:
            # Rung 2: fresh single-worker pool under the retry policy.
            def attempt():
                try:
                    return self._attempt_once(
                        fn, args, shard, policy, chaos, use_pool=True
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as error:
                    shard.errors.append(_error_text(error))
                    raise

            try:
                value = retry_call(
                    attempt, policy.retry, sleep=sleep or time.sleep
                ).value
                if depth == 0:
                    shard.outcome = "retried"
                return value
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                last_error: BaseException = error

            # Rung 3: bisection re-sharding, each half down the ladder.
            if (
                policy.bisect
                and split is not None
                and depth < policy.max_bisect_depth
            ):
                parts = split(args)
                if parts:
                    try:
                        values = [
                            self._rescue(
                                fn, part, shard, policy, split, merge,
                                chaos, depth + 1, sleep,
                            )
                            for part in parts
                        ]
                        value = merge(values)
                        if depth == 0:
                            shard.outcome = "bisected"
                        return value
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as error:
                        last_error = error

            # Rung 4: serial fallback in the calling process.
            if policy.serial_fallback:
                try:
                    value = self._attempt_once(
                        fn, args, shard, policy, chaos, use_pool=False
                    )
                    if depth == 0:
                        shard.outcome = "serial"
                    return value
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    shard.errors.append(_error_text(error))
                    last_error = error

            raise last_error
        finally:
            shard.duration_s += time.perf_counter() - started

    def _attempt_once(self, fn, args, shard, policy, chaos, *, use_pool):
        """One shard attempt: in-process, or on a fresh one-worker pool.

        Chaos is consulted every attempt so bounded faults
        (``times=N``) burn out across retries exactly like transient
        real-world failures.  In-process attempts degrade ``kill`` to a
        raised error and honour ``hang`` as a sleep (no preemption is
        possible without a pool).
        """
        shard.attempts += 1
        directive = _consult_chaos(chaos)
        backend = self.parallel.resolved_backend()
        deadline = policy.shard_deadline_s if policy is not None else None
        if not use_pool or backend == "serial":
            if directive is not None:
                if directive.action == "kill":
                    return _simulated_death(fn, args)
                time.sleep(directive.delay_s)
            return fn(*args)
        pool = _new_pool(backend, 1)
        dirty = False
        try:
            future = self._submit(pool, fn, args, directive, backend)
            try:
                return future.result(timeout=deadline)
            except _futures.TimeoutError as error:
                dirty = True
                future.cancel()
                raise TimeoutError(
                    f"shard {shard.index} exceeded deadline {deadline}s"
                ) from error
            except _futures.BrokenExecutor:
                dirty = True
                raise
        finally:
            pool.shutdown(wait=not dirty, cancel_futures=True)

