"""Parallel execution layer for the pipeline's hot paths.

The paper ran its all-pairs comparisons and per-cluster Hawkes fits on a
two-GPU TensorFlow rig; the laptop-scale reproduction runs the
all-pairs join serially (one :class:`repro.hashing.index.RadiusIndex`
finds each pair once, faster than a fan-out of it on few cores) and
fans out one embarrassingly-parallel hot path, Step 6's nearest-medoid
association, over a small executor abstraction with three
interchangeable backends:

* ``serial`` — a plain loop in the calling thread.  The default, and
  the reference semantics every other backend must reproduce.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Effective for numpy-heavy work that releases the GIL; zero
  serialisation cost.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Work items are pickled to the workers, so the fan-out hands over
  compact numpy shards (a slice of the unique ``uint64`` hashes plus the
  medoid table); worker functions must be module-level.

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
3. **bisection re-sharding** — when the caller gives ``merge``, a shard
   that keeps failing has its first argument (an array or list) halved
   and each half walks the ladder independently, so an allocation-bound
   failure gets a smaller working set and the error trail narrows down
   a poison item;
4. **serial fallback** — the shard runs in the calling process,
   sidestepping pool pathologies (pickling, worker death) entirely;
5. **fail** — a shard that fails even serially is *poison*: the call
   raises :class:`PoisonShardError`, naming the shard and carrying its
   error trail.  The caller (association columns) builds arrays with no
   way to represent a missing shard, so the failure goes to its own
   error handling (the staged runner fails the stage).

A fan-out that returns is complete: its results are submission-ordered
and bit-identical to serial, whichever rungs the shards took.

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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.utils.retry import RetryPolicy, retry_call

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "ENV_WORKERS",
    "ChaosDirective",
    "DEFAULT_CHAOS_SITES",
    "Executor",
    "ParallelConfig",
    "PoisonShardError",
    "SupervisionPolicy",
    "effective_workers",
    "resolve_parallel",
    "shard_bounds",
    "warn_if_oversubscribed",
]

R = TypeVar("R")

BACKENDS = ("auto", "serial", "thread", "process")

ENV_WORKERS = "REPRO_WORKERS"
ENV_BACKEND = "REPRO_PARALLEL_BACKEND"


def _visible_cpus() -> int | None:
    """CPUs this *process* may run on, or ``None`` when unknowable.

    ``os.cpu_count()`` ignores cgroup and affinity limits (a container
    pinned to 2 of 64 cores says 64), so the scheduler affinity mask
    comes first; platforms without it fall back to the core count.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
            if affinity > 0:
                return affinity
        except OSError:
            pass
    return os.cpu_count()


def effective_workers(workers: int) -> int:
    """Workers that can actually run concurrently on this host.

    CPU-bound kernels (everything in this codebase) gain nothing from
    more workers than cores; process workers *lose* (extra pickling and
    context switching for zero extra parallelism).  "Cores" means the
    affinity-aware visible CPU count, not the raw machine count;
    when neither source knows, the requested count stands.
    """
    workers = int(workers)
    return max(1, min(workers, _visible_cpus() or workers))


def warn_if_oversubscribed(workers: int, *, source: str) -> int:
    """Warn when a requested worker count exceeds the visible CPUs.

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
        Optional :class:`SupervisionPolicy` the supervised fan-out
        applies.  ``None`` means the default policy.  Carried here so it
        travels wherever the parallel config already flows (runner →
        ``associate_hashes``) without new plumbing.
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
# Supervision: policy, chaos plumbing
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
    """A shard failed the entire supervision ladder.

    Carries the shard's submission index and its error trail (every
    failure on the way, oldest first); the final underlying error is
    chained as ``__cause__``.
    """

    def __init__(
        self, shard_index: int, cause: BaseException, errors: list[str]
    ) -> None:
        super().__init__(
            f"shard {shard_index} failed permanently after the supervision "
            f"ladder (retry, bisect, serial fallback): "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard_index = shard_index
        self.errors = errors


# Recursion bound on bisection (2 -> a shard shrinks at most 4x),
# capping the worst-case attempt count on deterministic poison.
MAX_BISECT_DEPTH = 2


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
    """

    shard_deadline_s: float | None = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=1, base_delay=0.01, retryable=(Exception,)
        )
    )

    def __post_init__(self) -> None:
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive")


def _halves(args: tuple) -> list[tuple] | None:
    """The call ``args`` with its first argument (an array or list)
    halved, or ``None`` when it has one element or fewer."""
    first = args[0]
    if len(first) <= 1:
        return None
    mid = len(first) // 2
    return [(first[:mid], *args[1:]), (first[mid:], *args[1:])]


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
    fail; see the module docstring).
    """

    def __init__(self, parallel: ParallelConfig | None = None) -> None:
        self.parallel = resolve_parallel(parallel)

    def supervised_starmap(
        self,
        fn: Callable[..., R],
        items: Iterable[Sequence],
        *,
        policy: SupervisionPolicy | None = None,
        merge: Callable[[list], R] | None = None,
        chaos: Callable[[str], ChaosDirective | None] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> list[R]:
        """``[fn(*args) for args in items]`` under the supervision ladder.

        Parameters
        ----------
        policy:
            Overrides ``parallel.supervision`` (which overrides the
            default :class:`SupervisionPolicy`).
        merge:
            Turns the bisection rung on: a failing shard's first
            argument is halved, and ``merge(values)`` reassembles the
            halves' outputs into the value the whole call would have
            produced.  Without it the rung is skipped.
        chaos:
            Overrides ``parallel.chaos`` (test/drill hook).
        sleep:
            Injected into :func:`repro.utils.retry.retry_call` so tests
            can skip real backoff sleeps.

        Returns the results in submission order.  Raises
        :class:`PoisonShardError` at the first shard (by index) that
        fails every rung.
        """
        calls = [tuple(args) for args in items]
        if policy is None:
            policy = self.parallel.supervision or SupervisionPolicy()
        if chaos is None:
            chaos = self.parallel.chaos
        workers = min(self.parallel.workers, max(1, len(calls)))
        results: list = [None] * len(calls)
        errors: list[list[str]] = [[] for _ in calls]
        if self.parallel.resolved_backend() == "serial" or workers <= 1:
            failed = self._first_wave_serial(fn, calls, chaos, results, errors)
        else:
            failed = self._first_wave_pooled(
                fn, calls, policy, chaos, results, errors, workers
            )
        for index in sorted(failed):
            try:
                results[index] = self._rescue(
                    fn, calls[index], index, errors[index], policy, merge,
                    chaos, depth=0, sleep=sleep,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                raise PoisonShardError(index, error, errors[index]) from error
        return results

    def _first_wave_serial(self, fn, calls, chaos, results, errors) -> set[int]:
        """Serial first wave: plain in-process calls, chaos honoured.
        Returns the indices of the shards that failed."""
        failed = set()
        for index, args in enumerate(calls):
            try:
                results[index] = self._attempt_once(
                    fn, args, index, None, chaos, use_pool=False
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                errors[index].append(_error_text(error))
                failed.add(index)
        return failed

    def _first_wave_pooled(
        self, fn, calls, policy, chaos, results, errors, workers
    ) -> set[int]:
        """Pooled first wave: submit everything, collect in submission
        order with per-shard deadlines, survive worker death.  Returns
        the indices of the shards that failed.

        The shared pool is shut down without waiting when a shard hung
        or the pool broke (a ``with`` block would join the hung worker
        and stall the parent — the exact pathology supervision exists
        to prevent).
        """
        backend = self.parallel.resolved_backend()
        pool = _new_pool(backend, workers)
        dirty = False  # hung or broken: don't join workers on shutdown
        failed = set()

        def fail(index: int, error: BaseException) -> None:
            errors[index].append(_error_text(error))
            failed.add(index)

        try:
            futures: list[_futures.Future | None] = [None] * len(calls)
            for index, args in enumerate(calls):
                try:
                    directive = _consult_chaos(chaos)
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
                    fail(index, error)
                except Exception as error:
                    fail(index, error)
            for index, future in enumerate(futures):
                if future is None:
                    continue
                try:
                    results[index] = future.result(
                        timeout=policy.shard_deadline_s
                    )
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
                    fail(index, hang)
                except _futures.BrokenExecutor as error:
                    dirty = True
                    fail(index, error)
                except Exception as error:
                    fail(index, error)
        finally:
            pool.shutdown(wait=not dirty, cancel_futures=True)
        return failed

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
        self, fn, args, index, errors, policy, merge, chaos, depth, sleep
    ):
        """Walk a failed shard down the rescue ladder; return its value.

        Raises the final underlying error when every rung fails.  The
        recursive bisection halves add their failures to the same
        ``errors`` trail.
        """

        # Rung 2: fresh single-worker pool under the retry policy.
        def attempt():
            try:
                return self._attempt_once(
                    fn, args, index, policy, chaos, use_pool=True
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:
                errors.append(_error_text(error))
                raise

        try:
            return retry_call(
                attempt, policy.retry, sleep=sleep or time.sleep
            ).value
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            last_error: BaseException = error

        # Rung 3: bisection re-sharding, each half down the ladder.
        parts = (
            _halves(args)
            if merge is not None and depth < MAX_BISECT_DEPTH
            else None
        )
        if parts:
            try:
                return merge(
                    [
                        self._rescue(
                            fn, part, index, errors, policy, merge, chaos,
                            depth + 1, sleep,
                        )
                        for part in parts
                    ]
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                last_error = error

        # Rung 4: serial fallback in the calling process.
        try:
            return self._attempt_once(
                fn, args, index, policy, chaos, use_pool=False
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            errors.append(_error_text(error))
            last_error = error
        raise last_error

    def _attempt_once(self, fn, args, index, policy, chaos, *, use_pool):
        """One shard attempt: in-process, or on a fresh one-worker pool.

        Chaos is consulted every attempt so bounded faults
        (``times=N``) burn out across retries exactly like transient
        real-world failures.  In-process attempts degrade ``kill`` to a
        raised error and honour ``hang`` as a sleep (no preemption is
        possible without a pool).
        """
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
                    f"shard {index} exceeded deadline {deadline}s"
                ) from error
            except _futures.BrokenExecutor:
                dirty = True
                raise
        finally:
            pool.shutdown(wait=not dirty, cancel_futures=True)
