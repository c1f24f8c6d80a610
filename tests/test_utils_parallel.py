"""Tests for the parallel execution layer (executor, shards, env config,
supervised execution ladder)."""

import threading
import time
import warnings

import numpy as np
import pytest

from repro.utils.parallel import (
    BACKENDS,
    ENV_BACKEND,
    ENV_WORKERS,
    ChaosDirective,
    Executor,
    ParallelConfig,
    PoisonShardError,
    SupervisionPolicy,
    effective_workers,
    resolve_parallel,
    shard_bounds,
    warn_if_oversubscribed,
)
from repro.utils.retry import RetryPolicy

ALL_BACKENDS = ("serial", "thread", "process")


def _no_sleep(seconds):
    """Injected into retry_call so ladder tests never actually back off."""


# Module-level so the process backend can pickle them.
def _square(x):
    return x * x


def _slow_identity(x):
    # Later submissions sleep less, so completion order inverts
    # submission order — results must still come back in submission order.
    time.sleep(0.05 - 0.004 * x)
    return x


def _boom(x):
    raise ValueError(f"worker failed on {x}")


def _add(a, b):
    return a + b


class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert config.workers == 1
        assert config.is_serial
        assert config.resolved_backend() == "serial"

    def test_auto_resolves_to_process_for_many_workers(self):
        config = ParallelConfig(workers=4)
        assert config.resolved_backend() == "process"
        assert not config.is_serial

    def test_explicit_serial_backend_wins_over_workers(self):
        assert ParallelConfig(workers=8, backend="serial").is_serial

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ParallelConfig(backend="gpu")

    def test_backends_constant_covers_all(self):
        assert set(ALL_BACKENDS) <= set(BACKENDS)


class TestEnvResolution:
    def test_unset_env_is_serial(self):
        config = ParallelConfig.from_env(env={})
        assert config.workers == 1 and config.is_serial

    def test_env_workers_and_backend(self):
        config = ParallelConfig.from_env(
            env={ENV_WORKERS: "3", ENV_BACKEND: "thread"}
        )
        assert config.workers == 3
        assert config.resolved_backend() == "thread"

    def test_malformed_env_falls_back_to_serial(self):
        with pytest.warns(RuntimeWarning) as caught:
            config = ParallelConfig.from_env(
                env={ENV_WORKERS: "many", ENV_BACKEND: "gpu"}
            )
        assert config.workers == 1 and config.backend == "auto"
        messages = [str(w.message) for w in caught]
        assert any(ENV_WORKERS in m and "'many'" in m for m in messages)
        assert any(ENV_BACKEND in m and "'gpu'" in m for m in messages)

    def test_malformed_workers_warning_names_value(self):
        # Regression: a bad REPRO_WORKERS used to be silently swallowed.
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='4x'"):
            config = ParallelConfig.from_env(env={ENV_WORKERS: "4x"})
        assert config.workers == 1 and config.is_serial

    def test_wellformed_env_does_not_warn(self, monkeypatch):
        import repro.utils.parallel as mod

        # Pin the visible CPUs above the requested workers: this test is
        # about malformed-value warnings, not the oversubscription
        # warning.  the CPU count prefers the affinity mask, so both
        # sources are pinned.
        monkeypatch.setattr(mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            mod.os,
            "sched_getaffinity",
            lambda pid: set(range(8)),
            raising=False,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = ParallelConfig.from_env(
                env={ENV_WORKERS: "2", ENV_BACKEND: "thread"}
            )
        assert config.workers == 2

    def test_resolve_prefers_explicit_config(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "7")
        explicit = ParallelConfig(workers=2)
        assert resolve_parallel(explicit) is explicit
        assert resolve_parallel(None).workers == 7


class TestShardBounds:
    def test_empty(self):
        assert shard_bounds(0, ParallelConfig(workers=4)) == []

    def test_covers_range_without_overlap(self):
        for n in (1, 5, 17, 100):
            for workers in (1, 2, 4, 7):
                bounds = shard_bounds(n, ParallelConfig(workers=workers))
                flat = [i for s, e in bounds for i in range(s, e)]
                assert flat == list(range(n))

    def test_process_shards_are_worker_sized(self):
        bounds = shard_bounds(
            100, ParallelConfig(workers=4, backend="process")
        )
        assert len(bounds) == 4

    def test_thread_shards_oversubscribe(self):
        # Thread shards target ~4 per worker for load balancing:
        # size = ceil(100 / 16) = 7, giving 15 shards.
        bounds = shard_bounds(100, ParallelConfig(workers=4, backend="thread"))
        assert all(end - start <= 7 for start, end in bounds)
        assert len(bounds) == 15


def _args(values):
    """One single-argument call per value."""
    return [(value,) for value in values]


def _fan_out(fn, items, config, **kwargs):
    """Results of one supervised fan-out, the executor's one entry point."""
    return Executor(config).supervised_starmap(fn, items, **kwargs)


class TestExecutor:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_input(self, backend):
        config = ParallelConfig(workers=2, backend=backend)
        assert _fan_out(_add, [], config) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_starmap(self, backend):
        config = ParallelConfig(workers=2, backend=backend)
        items = [(i, 10 * i) for i in range(8)]
        assert _fan_out(_add, items, config) == [11 * i for i in range(8)]

    def test_ordering_despite_completion_order(self):
        # Thread backend with inverted completion order: results must
        # still follow submission order.
        config = ParallelConfig(workers=4, backend="thread")
        results = _fan_out(_slow_identity, _args(range(8)), config)
        assert results == list(range(8))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_worker_exception_propagates(self, backend):
        # A raising kernel surfaces, chained under the error that names
        # its shard.
        config = ParallelConfig(workers=2, backend=backend)
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, retryable=(Exception,)),
        )
        with pytest.raises(PoisonShardError) as excinfo:
            _fan_out(_boom, _args(range(4)), config, policy=policy)
        assert excinfo.value.shard_index == 0
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "worker failed on 0" in str(excinfo.value.__cause__)

    def test_numpy_shards_cross_process_boundary(self):
        # The process backend moves pickled numpy shards; values and
        # dtype must survive the round trip.
        config = ParallelConfig(workers=2, backend="process")
        shards = [np.arange(5, dtype=np.uint64) + i for i in range(4)]
        results = _fan_out(_square, _args(shards), config)
        for shard, result in zip(shards, results):
            assert result.dtype == np.uint64
            assert np.array_equal(result, shard * shard)


# ----------------------------------------------------------------------
# Supervised execution
# ----------------------------------------------------------------------


def _poison_on_three(x):
    if x == 3:
        raise ValueError("poison item 3")
    return x * x


def _values_poisoned(values):
    # Deterministic poison at item 5: any shard holding it fails until
    # bisection isolates 5 into its own single-item shard.
    if 5 in values and len(values) > 1:
        raise ValueError(f"shard {values.tolist()} covers the poison item")
    if 5 in values:
        raise ValueError("item 5 is pure poison")
    return values.tolist()


def _concat(parts):
    """Reassemble the list outputs of a bisected shard."""
    return [value for part in parts for value in part]


class _RaiseTimes:
    """Chaos hook raising at parallel:shard for the first ``n`` attempts."""

    def __init__(self, n, error=RuntimeError):
        self.n = n
        self.error = error

    def __call__(self, site):
        if site == "parallel:shard" and self.n > 0:
            self.n -= 1
            raise self.error(f"injected at {site}")
        return None


class _DirectiveTimes:
    """Chaos hook returning a directive at parallel:worker ``n`` times."""

    def __init__(self, n, action, delay_s=0.25):
        self.n = n
        self.directive = ChaosDirective(action, delay_s=delay_s)

    def __call__(self, site):
        if site == "parallel:worker" and self.n > 0:
            self.n -= 1
            return self.directive
        return None


class TestSupervisionPolicy:
    def test_defaults(self):
        policy = SupervisionPolicy()
        assert policy.shard_deadline_s is None
        assert policy.retry.retryable == (Exception,)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(shard_deadline_s=0)

    def test_chaos_directive_validation(self):
        with pytest.raises(ValueError):
            ChaosDirective("explode")


class TestSupervisedCleanPath:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_matches_plain_map(self, backend):
        executor = Executor(ParallelConfig(workers=2, backend=backend))
        results = executor.supervised_starmap(_square, _args(range(10)))
        assert results == [x * x for x in range(10)]

    def test_empty_input(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        assert executor.supervised_starmap(_square, []) == []

    def test_policy_from_parallel_config(self):
        # SupervisionPolicy carried on the config is honoured without an
        # explicit policy= argument: with no retries, a shard that always
        # fails is attempted three times (first wave, the retry rung's
        # one attempt, serial fallback) instead of the default four.
        config = ParallelConfig(
            workers=2,
            backend="thread",
            supervision=SupervisionPolicy(
                retry=RetryPolicy(max_retries=0, retryable=(Exception,))
            ),
        )
        chaos = _RaiseTimes(100)
        with pytest.raises(PoisonShardError):
            Executor(config).supervised_starmap(
                _square, _args([0]), chaos=chaos, sleep=_no_sleep
            )
        assert 100 - chaos.n == 3


class TestSupervisedLadder:
    def test_transient_failure_recovers_via_retry(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        chaos = _RaiseTimes(2)
        results = executor.supervised_starmap(
            _square, _args(range(4)), chaos=chaos, sleep=_no_sleep
        )
        assert results == [0, 1, 4, 9]
        assert chaos.n == 0  # both injected failures were absorbed

    def test_poison_shard_fails_fast_when_asked(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        with pytest.raises(PoisonShardError) as excinfo:
            executor.supervised_starmap(
                _poison_on_three, _args(range(5)), sleep=_no_sleep
            )
        assert excinfo.value.shard_index == 3
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "shard 3" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)
        # first wave + retry rung (1+1 retries) + serial fallback
        errors = excinfo.value.errors
        assert len(errors) >= 3
        assert all("poison item 3" in error for error in errors)

    def test_bisection_isolates_poison_item(self):
        # A shard of 4 items with one poison item: bisection recurses
        # until the single poison item is alone.  The caller cannot
        # accept a gap, so the shard fails, but the error trail shows
        # the narrowed poison.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
        )
        with pytest.raises(PoisonShardError) as excinfo:
            executor.supervised_starmap(
                _values_poisoned,
                [(np.arange(0, 4),), (np.arange(4, 8),)],
                policy=policy,
                merge=_concat,
                sleep=_no_sleep,
            )
        assert excinfo.value.shard_index == 1  # covers poison item 5
        assert any("pure poison" in e for e in excinfo.value.errors)

    def test_bisection_recovers_size_dependent_failure(self):
        # Fails only while the shard is wide, serially too: bisection
        # alone heals it.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
        )
        results = executor.supervised_starmap(
            _wide_shard_fails,
            [(np.arange(0, 4),), (np.arange(4, 6),)],
            policy=policy,
            merge=_concat,
            sleep=_no_sleep,
        )
        assert results == [[0, 1, 2, 3], [4, 5]]

    def test_single_item_shard_skips_bisection(self):
        # A first argument of one item cannot be halved: a shard that
        # fails on the pool goes from the retry rung straight to the
        # serial fallback, which heals it.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
        )
        caller = threading.get_ident()
        seen = []

        def fails_on_the_pool(values):
            seen.append(values.tolist())
            if threading.get_ident() != caller:
                raise RuntimeError("pool attempt failed")
            return values.tolist()

        results = executor.supervised_starmap(
            fails_on_the_pool,
            [(np.arange(0, 1),), (np.arange(1, 2),)],
            policy=policy,
            merge=_concat,
            sleep=_no_sleep,
        )
        assert results == [[0], [1]]
        # First wave, the retry rung's one attempt, serial fallback:
        # every attempt saw the whole one-item shard.
        assert sorted(seen) == [[0]] * 3 + [[1]] * 3

    def test_serial_fallback_rescues_pool_pathology(self):
        # Chaos kills the pool worker on the first wave and on the
        # retry rung; the in-process rung computes.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
        )
        results = executor.supervised_starmap(
            _square,
            _args(range(2)),
            policy=policy,
            chaos=_DirectiveTimes(2, "kill"),
            sleep=_no_sleep,
        )
        assert results == [0, 1]

    def test_hang_detection_thread_backend(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        chaos = _DirectiveTimes(1, "hang", delay_s=2.0)
        started = time.perf_counter()
        results = executor.supervised_starmap(
            _square,
            _args(range(3)),
            policy=SupervisionPolicy(shard_deadline_s=0.1),
            chaos=chaos,
            sleep=_no_sleep,
        )
        assert results == [0, 1, 4]
        assert chaos.n == 0
        # The hung shard was abandoned at its deadline and rescued, not
        # waited for.
        assert time.perf_counter() - started < 1.5

    def test_serial_backend_walks_ladder_in_process(self):
        executor = Executor(ParallelConfig(workers=1))
        with pytest.raises(PoisonShardError) as excinfo:
            executor.supervised_starmap(
                _poison_on_three, _args(range(5)), sleep=_no_sleep
            )
        assert excinfo.value.shard_index == 3
        # first wave + retry rung (1+1 retries) + serial fallback
        assert len(excinfo.value.errors) == 4

    def test_raising_chaos_hook_during_submission_is_shard_failure(self):
        # The hook raising in the parent at submission time must count
        # against that shard only, not abort the fan-out.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        results = executor.supervised_starmap(
            _square, _args(range(6)), chaos=_RaiseTimes(1), sleep=_no_sleep
        )
        assert results == [x * x for x in range(6)]


class TestSupervisedProcessBackend:
    def test_worker_raise_names_shard_in_fail_fast_error(self):
        executor = Executor(ParallelConfig(workers=2, backend="process"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
        )
        with pytest.raises(PoisonShardError) as excinfo:
            executor.supervised_starmap(
                _poison_on_three,
                _args(range(5)),
                policy=policy,
                sleep=_no_sleep,
            )
        assert excinfo.value.shard_index == 3
        assert "poison item 3" in str(excinfo.value)
        # The trail keeps the worker's original exception.
        assert any(
            "ValueError: poison item 3" in error
            for error in excinfo.value.errors
        )

    def test_worker_death_recovers(self):
        # A killed process worker breaks the whole pool; every in-flight
        # shard must be rescued on fresh pools with nothing lost.
        executor = Executor(ParallelConfig(workers=2, backend="process"))
        chaos = _DirectiveTimes(1, "kill")
        results = executor.supervised_starmap(
            _square, _args(range(6)), chaos=chaos, sleep=_no_sleep
        )
        assert results == [x * x for x in range(6)]
        assert chaos.n == 0

    def test_hang_detection_process_backend(self):
        executor = Executor(ParallelConfig(workers=2, backend="process"))
        started = time.perf_counter()
        results = executor.supervised_starmap(
            _square,
            _args(range(3)),
            policy=SupervisionPolicy(shard_deadline_s=0.15),
            chaos=_DirectiveTimes(1, "hang", delay_s=5.0),
            sleep=_no_sleep,
        )
        assert results == [0, 1, 4]
        assert time.perf_counter() - started < 4.0


def _wide_shard_fails(values):
    if len(values) > 2:
        raise MemoryError(f"shard {values.tolist()} too wide")
    return values.tolist()


def _pin_cpus(monkeypatch, n: int | None) -> None:
    """Pin both CPU sources the worker budget consults."""
    import repro.utils.parallel as mod

    monkeypatch.setattr(mod.os, "cpu_count", lambda: n)
    if n is None:
        monkeypatch.delattr(mod.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            mod.os,
            "sched_getaffinity",
            lambda pid: set(range(n)),
            raising=False,
        )


class TestWorkerBudget:
    def test_effective_workers_caps_at_cpu_count(self, monkeypatch):
        _pin_cpus(monkeypatch, 2)
        assert effective_workers(8) == 2
        assert effective_workers(1) == 1
        assert effective_workers(2) == 2

    def test_effective_workers_unknown_cpu_count(self, monkeypatch):
        _pin_cpus(monkeypatch, None)
        assert effective_workers(6) == 6

    def test_affinity_mask_overrides_cpu_count(self, monkeypatch):
        # A container pinned to 2 of 64 cores: os.cpu_count() still says
        # 64, but the scheduler will only ever run 2 workers at once —
        # clamping must follow the affinity mask.
        import repro.utils.parallel as mod

        monkeypatch.setattr(mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            mod.os, "sched_getaffinity", lambda pid: {3, 17}, raising=False
        )
        assert effective_workers(8) == 2
        with pytest.warns(RuntimeWarning, match="2 CPU"):
            assert warn_if_oversubscribed(8, source="--workers") == 2

    def test_affinity_failure_falls_back_to_cpu_count(self, monkeypatch):
        import repro.utils.parallel as mod

        def boom(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(mod.os, "sched_getaffinity", boom, raising=False)
        assert effective_workers(8) == 4

    def test_oversubscription_warns_and_caps(self, monkeypatch):
        _pin_cpus(monkeypatch, 2)
        with pytest.warns(RuntimeWarning, match="2 CPU"):
            assert warn_if_oversubscribed(8, source="--workers") == 2

    def test_within_budget_is_silent(self, monkeypatch):
        _pin_cpus(monkeypatch, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warn_if_oversubscribed(4, source="--workers") == 4

    def test_from_env_warns_on_oversubscription(self, monkeypatch):
        _pin_cpus(monkeypatch, 1)
        with pytest.warns(RuntimeWarning, match=ENV_WORKERS):
            config = ParallelConfig.from_env({ENV_WORKERS: "8"})
        assert config.workers == 8  # requested count preserved, only warned

    def test_from_env_warns_on_malformed_workers(self):
        with pytest.warns(RuntimeWarning, match="malformed"):
            config = ParallelConfig.from_env({ENV_WORKERS: "lots"})
        assert config.workers == 1

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_from_env_warns_on_non_positive_workers(self, raw):
        # Regression: max(1, workers) used to clamp these to serial
        # without a word, unlike every other malformed value.
        with pytest.warns(
            RuntimeWarning, match=f"malformed {ENV_WORKERS}='{raw}'"
        ):
            config = ParallelConfig.from_env({ENV_WORKERS: raw})
        assert config.workers == 1 and config.is_serial

    def test_from_env_warns_on_malformed_backend(self):
        with pytest.warns(RuntimeWarning, match="malformed"):
            config = ParallelConfig.from_env({ENV_BACKEND: "gpu"})
        assert config.backend == "auto"
