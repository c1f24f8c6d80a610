"""Tests for the parallel execution layer (executor, shards, env config,
supervised execution ladder)."""

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
    array_splitter,
    effective_workers,
    parallel_map,
    parallel_starmap,
    range_splitter,
    resolve_parallel,
    shard_bounds,
    strict_supervision,
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

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ParallelConfig(chunk_size=0)

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
        # warning.  available_cpus() prefers the affinity mask, so both
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

    def test_explicit_chunk_size(self):
        bounds = shard_bounds(10, ParallelConfig(workers=2, chunk_size=4))
        assert bounds == [(0, 4), (4, 8), (8, 10)]

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


class TestExecutor:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_map_matches_serial(self, backend):
        config = ParallelConfig(workers=2, backend=backend)
        assert parallel_map(_square, range(20), config) == [
            x * x for x in range(20)
        ]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_input(self, backend):
        config = ParallelConfig(workers=2, backend=backend)
        assert parallel_map(_square, [], config) == []
        assert parallel_starmap(_add, [], config) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_starmap(self, backend):
        config = ParallelConfig(workers=2, backend=backend)
        items = [(i, 10 * i) for i in range(8)]
        assert parallel_starmap(_add, items, config) == [11 * i for i in range(8)]

    def test_ordering_despite_completion_order(self):
        # Thread backend with inverted completion order: results must
        # still follow submission order.
        config = ParallelConfig(workers=4, backend="thread")
        assert parallel_map(_slow_identity, range(8), config) == list(range(8))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_worker_exception_propagates(self, backend):
        config = ParallelConfig(workers=2, backend=backend)
        with pytest.raises(ValueError, match="worker failed"):
            parallel_map(_boom, range(4), config)

    def test_numpy_shards_cross_process_boundary(self):
        # The process backend moves pickled numpy shards; values and
        # dtype must survive the round trip.
        config = ParallelConfig(workers=2, backend="process")
        shards = [np.arange(5, dtype=np.uint64) + i for i in range(4)]
        results = parallel_map(_square, shards, config)
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


def _range_values(start, stop):
    return list(range(start, stop))


def _range_values_poisoned(start, stop):
    # Deterministic poison at item 5: any shard covering it fails until
    # bisection isolates 5 into its own single-item shard.
    if start <= 5 < stop and stop - start > 1:
        raise ValueError(f"shard [{start}, {stop}) covers the poison item")
    if start == 5:
        raise ValueError("item 5 is pure poison")
    return list(range(start, stop))


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
        assert policy.bisect and policy.serial_fallback
        assert policy.on_poison == "quarantine"
        assert policy.retry.retryable == (Exception,)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(shard_deadline_s=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(max_bisect_depth=-1)
        with pytest.raises(ValueError):
            SupervisionPolicy(on_poison="retry")

    def test_chaos_directive_validation(self):
        with pytest.raises(ValueError):
            ChaosDirective("explode")

    def test_strict_supervision_forces_fail(self):
        parallel = ParallelConfig(
            workers=2, supervision=SupervisionPolicy(shard_deadline_s=9.0)
        )
        strict = strict_supervision(parallel)
        assert strict.on_poison == "fail"
        assert strict.shard_deadline_s == 9.0  # other knobs preserved


class TestSplitters:
    def test_range_splitter_halves(self):
        split = range_splitter(0, 1)
        assert split((0, 10)) == [(0, 5), (5, 10)]
        assert split((4, 5)) is None  # single item: unsplittable

    def test_array_splitter_halves(self):
        split = array_splitter(0)
        parts = split((np.arange(5), "extra"))
        assert np.array_equal(parts[0][0], np.arange(2))
        assert np.array_equal(parts[1][0], np.arange(2, 5))
        assert parts[0][1] == parts[1][1] == "extra"
        assert split((np.arange(1), "extra")) is None


class TestSupervisedCleanPath:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_matches_plain_map(self, backend):
        executor = Executor(ParallelConfig(workers=2, backend=backend))
        sup = executor.supervised_map(_square, range(10))
        assert sup.results == [x * x for x in range(10)]
        assert sup.complete
        assert sup.report.backend == executor.parallel.resolved_backend()
        assert all(s.outcome == "ok" for s in sup.report.shards)
        assert all(s.attempts == 1 for s in sup.report.shards)

    def test_empty_input(self):
        sup = Executor(ParallelConfig(workers=2, backend="thread")).supervised_map(
            _square, []
        )
        assert sup.results == [] and sup.report.n_shards == 0

    def test_split_without_merge_rejected(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        with pytest.raises(ValueError, match="together"):
            executor.supervised_map(_square, range(4), split=range_splitter(0, 1))

    def test_policy_from_parallel_config(self):
        # SupervisionPolicy carried on the config is honoured without an
        # explicit policy= argument.
        config = ParallelConfig(
            workers=2,
            backend="thread",
            supervision=SupervisionPolicy(on_poison="fail", bisect=False,
                                          serial_fallback=False),
        )
        with pytest.raises(PoisonShardError):
            Executor(config).supervised_map(
                _poison_on_three, range(5), sleep=_no_sleep
            )


class TestSupervisedLadder:
    def test_transient_failure_recovers_via_retry(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        sup = executor.supervised_map(
            _square, range(4), chaos=_RaiseTimes(2), sleep=_no_sleep
        )
        assert sup.results == [0, 1, 4, 9]
        assert sup.complete
        assert len(sup.report.retried) == 2
        retried = sup.report.shards[sup.report.retried[0]]
        assert retried.outcome == "retried"
        assert retried.attempts >= 2
        assert any("injected" in e for e in retried.errors)

    def test_poison_shard_quarantines_with_gap(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        sup = executor.supervised_map(
            _poison_on_three, range(5), sleep=_no_sleep
        )
        assert sup.results == [0, 1, 4, None, 16]
        assert not sup.complete
        assert sup.report.quarantined == [3]
        shard = sup.report.shards[3]
        assert shard.outcome == "quarantined"
        # first wave + retry rung (1+1 retries) + serial fallback
        assert shard.attempts >= 3
        assert any("poison item 3" in error for error in shard.errors)

    def test_poison_shard_fails_fast_when_asked(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        with pytest.raises(PoisonShardError) as excinfo:
            executor.supervised_map(
                _poison_on_three,
                range(5),
                policy=SupervisionPolicy(on_poison="fail"),
                sleep=_no_sleep,
            )
        assert excinfo.value.shard_index == 3
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "shard 3" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)

    def test_bisection_isolates_poison_item(self):
        # A shard of 4 items with one poison item: bisection recurses
        # until only the single poison item quarantines; the healthy
        # items of the same shard are NOT lost with it when the caller
        # cannot accept gaps smaller than a shard — here the whole shard
        # quarantines, but the error trail shows the narrowed poison.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
            max_bisect_depth=3,
        )
        sup = executor.supervised_starmap(
            _range_values_poisoned,
            [(0, 4), (4, 8)],
            policy=policy,
            split=range_splitter(0, 1),
            merge=lambda parts: [v for part in parts for v in part],
            sleep=_no_sleep,
        )
        assert sup.results[0] == [0, 1, 2, 3]
        assert sup.results[1] is None  # covers poison item 5
        assert sup.report.quarantined == [1]
        assert any("pure poison" in e for e in sup.report.shards[1].errors)

    def test_bisection_recovers_size_dependent_failure(self):
        # Fails only while the shard is wide: bisection alone heals it.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
            serial_fallback=False,
        )
        sup = executor.supervised_starmap(
            _wide_shard_fails,
            [(0, 4), (4, 6)],
            policy=policy,
            split=range_splitter(0, 1),
            merge=lambda parts: [v for part in parts for v in part],
            sleep=_no_sleep,
        )
        assert sup.results == [[0, 1, 2, 3], [4, 5]]
        assert sup.report.shards[0].outcome == "bisected"

    def test_serial_fallback_rescues_pool_pathology(self):
        # Chaos keeps killing pool workers; serial fallback (which
        # degrades kill to a raised error... so use bounded kills) —
        # bounded to the pooled rungs, the in-process rung computes.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
            bisect=False,
        )
        sup = executor.supervised_map(
            _square,
            range(2),
            policy=policy,
            chaos=_DirectiveTimes(2, "kill"),
            sleep=_no_sleep,
        )
        assert sup.results == [0, 1]
        assert sup.complete

    def test_hang_detection_thread_backend(self):
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        sup = executor.supervised_map(
            _square,
            range(3),
            policy=SupervisionPolicy(shard_deadline_s=0.1),
            chaos=_DirectiveTimes(1, "hang", delay_s=2.0),
            sleep=_no_sleep,
        )
        assert sup.results == [0, 1, 4]
        assert sup.complete
        hung = [s for s in sup.report.shards if s.recovered]
        assert hung, "one shard should have been rescued after hanging"
        assert any("deadline" in e for s in hung for e in s.errors)

    def test_serial_backend_walks_ladder_in_process(self):
        executor = Executor(ParallelConfig(workers=1))
        sup = executor.supervised_map(
            _poison_on_three, range(5), sleep=_no_sleep
        )
        assert sup.results == [0, 1, 4, None, 16]
        assert sup.report.quarantined == [3]
        assert sup.report.backend == "serial"

    def test_raising_chaos_hook_during_submission_is_shard_failure(self):
        # The hook raising in the parent at submission time must count
        # against that shard only, not abort the fan-out.
        executor = Executor(ParallelConfig(workers=2, backend="thread"))
        sup = executor.supervised_map(
            _square, range(6), chaos=_RaiseTimes(1), sleep=_no_sleep
        )
        assert sup.results == [x * x for x in range(6)]
        assert len(sup.report.retried) == 1


class TestSupervisedProcessBackend:
    def test_worker_raise_salvages_prior_shards(self):
        # Satellite: process worker raising mid-fan-out. The ShardReport
        # names the shard index and the original exception, and every
        # other shard's result is salvaged.
        executor = Executor(ParallelConfig(workers=2, backend="process"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
            bisect=False,
            serial_fallback=False,
        )
        sup = executor.supervised_map(
            _poison_on_three, range(5), policy=policy, sleep=_no_sleep
        )
        assert sup.results == [0, 1, 4, None, 16]
        assert sup.report.quarantined == [3]
        shard = sup.report.shards[3]
        assert shard.index == 3
        assert any("poison item 3" in error for error in shard.errors)
        assert any("ValueError" in error for error in shard.errors)

    def test_worker_raise_names_shard_in_fail_fast_error(self):
        executor = Executor(ParallelConfig(workers=2, backend="process"))
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_retries=0, base_delay=0.0,
                              retryable=(Exception,)),
            bisect=False,
            serial_fallback=False,
            on_poison="fail",
        )
        with pytest.raises(PoisonShardError) as excinfo:
            executor.supervised_map(
                _poison_on_three, range(5), policy=policy, sleep=_no_sleep
            )
        assert excinfo.value.shard_index == 3
        assert "poison item 3" in str(excinfo.value)
        # Prior shards' work is still visible on the report carried by
        # the error.
        assert excinfo.value.report.shards[0].outcome == "ok"

    def test_worker_death_recovers(self):
        # A killed process worker breaks the whole pool; every in-flight
        # shard must be rescued on fresh pools with nothing lost.
        executor = Executor(ParallelConfig(workers=2, backend="process"))
        sup = executor.supervised_map(
            _square, range(6), chaos=_DirectiveTimes(1, "kill"),
            sleep=_no_sleep,
        )
        assert sup.results == [x * x for x in range(6)]
        assert sup.complete
        assert sup.report.retried  # at least the killed shard recovered
        assert any(
            "BrokenProcessPool" in error or "broken" in error.lower()
            for shard in sup.report.shards
            for error in shard.errors
        )

    def test_hang_detection_process_backend(self):
        executor = Executor(ParallelConfig(workers=2, backend="process"))
        sup = executor.supervised_map(
            _square,
            range(3),
            policy=SupervisionPolicy(shard_deadline_s=0.15),
            chaos=_DirectiveTimes(1, "hang", delay_s=5.0),
            sleep=_no_sleep,
        )
        assert sup.results == [0, 1, 4]
        assert sup.complete


def _wide_shard_fails(start, stop):
    if stop - start > 2:
        raise MemoryError(f"shard [{start}, {stop}) too wide")
    return list(range(start, stop))


def _pin_cpus(monkeypatch, n: int | None) -> None:
    """Pin both CPU sources available_cpus() consults."""
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
        assert mod.available_cpus() == 2
        assert effective_workers(8) == 2
        with pytest.warns(RuntimeWarning, match="2 CPU"):
            assert warn_if_oversubscribed(8, source="--workers") == 2

    def test_affinity_failure_falls_back_to_cpu_count(self, monkeypatch):
        import repro.utils.parallel as mod

        def boom(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(mod.os, "sched_getaffinity", boom, raising=False)
        assert mod.available_cpus() == 4

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
