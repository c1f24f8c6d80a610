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
    CostModel,
    Executor,
    ParallelConfig,
    PoisonShardError,
    SupervisionPolicy,
    array_splitter,
    effective_workers,
    kernel_timer,
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

    def test_from_env_warns_on_malformed_backend(self):
        with pytest.warns(RuntimeWarning, match="malformed"):
            config = ParallelConfig.from_env({ENV_BACKEND: "gpu"})
        assert config.backend == "auto"


class TestCostModel:
    def test_observe_sets_then_smooths_rate(self):
        model = CostModel(cpu_count=2, ewma=0.5)
        model.observe("k", "serial", units=100, seconds=1.0)
        assert model.rates["k"]["serial"] == pytest.approx(100.0)
        model.observe("k", "serial", units=300, seconds=1.0)
        assert model.rates["k"]["serial"] == pytest.approx(200.0)  # EWMA

    def test_observe_ignores_degenerate_samples(self):
        model = CostModel(cpu_count=2)
        model.observe("k", "serial", units=0, seconds=1.0)
        model.observe("k", "serial", units=10, seconds=0.0)
        assert "k" not in model.rates

    def test_single_core_host_always_dispatches_serial(self):
        model = CostModel(cpu_count=1)
        requested = ParallelConfig(workers=4, backend="process")
        chosen = model.choose("k", 10_000, requested)
        assert chosen.is_serial and chosen.workers == 1

    def test_uncalibrated_kernel_keeps_requested_config_capped(self):
        model = CostModel(cpu_count=2)
        requested = ParallelConfig(workers=8, backend="thread")
        chosen = model.choose("k", 10_000, requested)
        assert chosen.backend == "thread" and chosen.workers == 2

    def test_small_call_dispatches_serial_despite_pool_request(self):
        model = CostModel(cpu_count=4)
        model.observe("k", "serial", units=1_000_000, seconds=1.0)
        # Pool overhead (defaults) dwarfs the microseconds of real work.
        chosen = model.choose("k", 100, ParallelConfig(workers=4, backend="process"))
        assert chosen.is_serial

    def test_large_call_keeps_the_pool_when_observed_faster(self):
        model = CostModel(cpu_count=4)
        model.observe("k", "serial", units=1_000, seconds=1.0)  # 1k u/s
        model.observe("k", "thread", units=100_000, seconds=1.0)  # 100k u/s
        chosen = model.choose("k", 50_000, ParallelConfig(workers=8, backend="thread"))
        assert chosen.backend == "thread"
        assert chosen.workers == 4  # capped at cpu_count

    def test_dispatched_is_identity_without_model_or_when_serial(self):
        base = ParallelConfig(workers=4, backend="thread")
        assert base.dispatched("k", 100) is base
        serial = ParallelConfig(cost_model=CostModel(cpu_count=4))
        assert serial.dispatched("k", 100) is serial

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cost_model.json"
        model = CostModel(path, cpu_count=2)
        model.observe("k", "serial", units=500, seconds=1.0)
        model.overheads["process"] = 0.25
        model.save()
        reloaded = CostModel(path, cpu_count=2)  # auto-loads
        assert reloaded.rates["k"]["serial"] == pytest.approx(500.0)
        assert reloaded.pool_overhead("process") == pytest.approx(0.25)

    def test_malformed_persisted_state_is_ignored(self, tmp_path):
        path = tmp_path / "cost_model.json"
        path.write_text("not json at all {")
        model = CostModel(path, cpu_count=2)
        assert model.rates == {}

    def test_kernel_timer_observes_resolved_backend(self):
        model = CostModel(cpu_count=4)
        config = ParallelConfig(workers=2, backend="thread", cost_model=model)
        with kernel_timer(config, "k", 1_000):
            time.sleep(0.001)
        assert "thread" in model.rates["k"]

    def test_kernel_timer_backend_override(self):
        model = CostModel(cpu_count=4)
        config = ParallelConfig(workers=2, backend="thread", cost_model=model)
        with kernel_timer(config, "k", 1_000, backend="serial"):
            time.sleep(0.001)
        assert list(model.rates["k"]) == ["serial"]

    def test_kernel_timer_skips_failed_runs(self):
        model = CostModel(cpu_count=4)
        config = ParallelConfig(workers=2, backend="thread", cost_model=model)
        with pytest.raises(RuntimeError):
            with kernel_timer(config, "k", 1_000):
                raise RuntimeError("boom")
        assert "k" not in model.rates

    def test_kernel_timer_noop_without_model(self):
        with kernel_timer(ParallelConfig(workers=2, backend="thread"), "k", 10):
            pass  # must not raise or record anything


class TestCostModelSaveAtomicity:
    def test_interleaved_writers_never_tear_the_file(self, tmp_path):
        # Regression: save() used a fixed-name `.tmp` sibling, so two
        # concurrent writers (shared cache dir) could rename each
        # other's half-written temp into place.  With unique fsynced
        # temps the final file is always one writer's complete state.
        import json as json_mod
        import threading

        path = tmp_path / "cost_model.json"
        models = []
        for index in range(4):
            model = CostModel(path, cpu_count=2)
            model.observe(f"kernel-{index}", "serial", units=100, seconds=1.0)
            models.append(model)
        errors = []

        def hammer(model):
            try:
                for _ in range(25):
                    model.save()
            except Exception as error:  # pragma: no cover - the bug
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(model,))
            for model in models
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Parseable, and exactly one writer's state — never a mix.
        state = json_mod.loads(path.read_text())
        assert set(state["rates"]) in (
            {f"kernel-{index}"} for index in range(4)
        )
        # No orphaned temp files left behind in the shared directory.
        assert [entry.name for entry in tmp_path.iterdir()] == [path.name]

    def test_failed_write_leaves_no_temp_litter(self, tmp_path, monkeypatch):
        model = CostModel(tmp_path / "cost_model.json", cpu_count=2)
        monkeypatch.setattr(
            "repro.utils.parallel.os.replace",
            lambda *args: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            model.save()
        assert list(tmp_path.iterdir()) == []


class TestCostModelValidation:
    """Regression: load() accepted any float(rate) — a persisted 0.0,
    NaN, inf, or negative rate then divided by zero or poisoned
    choose()'s min silently."""

    def _write(self, path, data):
        import json as json_mod

        from repro.utils.parallel import host_fingerprint

        payload = {
            "version": 2,
            "cpu_count": 2,
            "host": host_fingerprint(),
            "rates": {},
            "overheads": {},
        }
        payload.update(data)
        path.write_text(json_mod.dumps(payload))

    def test_load_drops_degenerate_rates_keeps_good_ones(self, tmp_path):
        path = tmp_path / "cost_model.json"
        self._write(
            path,
            {
                "rates": {
                    "k": {
                        "serial": 0.0,
                        "thread": float("nan"),
                        "process": float("inf"),
                        "process_shm": -12.5,
                    },
                    "good": {"serial": 1234.5, "thread": "oops"},
                }
            },
        )
        model = CostModel(path, cpu_count=2)
        assert "k" not in model.rates
        assert model.rates["good"] == {"serial": pytest.approx(1234.5)}

    def test_load_drops_degenerate_overheads(self, tmp_path):
        path = tmp_path / "cost_model.json"
        self._write(
            path,
            {"overheads": {"process": 0.0, "thread": 0.004, "shm": None}},
        )
        model = CostModel(path, cpu_count=2)
        assert "process" not in model.overheads
        assert model.overheads["thread"] == pytest.approx(0.004)

    def test_degenerate_rate_never_reaches_estimate(self, tmp_path):
        path = tmp_path / "cost_model.json"
        self._write(path, {"rates": {"k": {"serial": 0.0}}})
        model = CostModel(path, cpu_count=2)
        # The old behaviour raised ZeroDivisionError here.
        assert model.estimate("k", "serial", 1000, 1) is None
        chosen = model.choose(
            "k", 1000, ParallelConfig(workers=2, backend="thread")
        )
        assert chosen.workers == 2  # uncalibrated path: requested, capped

    def test_observe_rejects_nonfinite_inputs(self):
        model = CostModel(cpu_count=2)
        model.observe("k", "serial", units=float("nan"), seconds=1.0)
        model.observe("k", "serial", units=100, seconds=float("inf"))
        model.observe("k", "serial", units=-5, seconds=1.0)
        model.observe("k", "serial", units=100, seconds=-1.0)
        assert "k" not in model.rates


class TestCostModelHostFingerprint:
    """Regression: persisted calibration was host-blind — numbers from
    a different machine (shared cache dir, CI artefact) silently drove
    dispatch on this one."""

    def test_save_stamps_host_fingerprint(self, tmp_path):
        import json as json_mod

        from repro.utils.parallel import host_fingerprint

        path = tmp_path / "cost_model.json"
        model = CostModel(path, cpu_count=2)
        model.observe("k", "serial", units=100, seconds=1.0)
        model.save()
        state = json_mod.loads(path.read_text())
        assert state["host"] == host_fingerprint()
        assert state["version"] == 2

    def test_foreign_host_calibration_discarded_whole(self, tmp_path):
        import json as json_mod

        from repro.utils.parallel import host_fingerprint

        path = tmp_path / "cost_model.json"
        foreign = dict(host_fingerprint())
        foreign["cpu_count"] = (foreign["cpu_count"] or 1) + 63
        path.write_text(
            json_mod.dumps(
                {
                    "version": 2,
                    "host": foreign,
                    "rates": {"k": {"serial": 999.0}},
                    "overheads": {"process": 0.5},
                }
            )
        )
        model = CostModel(path, cpu_count=2)
        assert model.rates == {}
        assert model.overheads == {}

    def test_legacy_file_without_host_discarded(self, tmp_path):
        import json as json_mod

        path = tmp_path / "cost_model.json"
        path.write_text(
            json_mod.dumps(
                {"version": 1, "rates": {"k": {"serial": 999.0}}}
            )
        )
        model = CostModel(path, cpu_count=2)
        assert model.rates == {}

    def test_same_host_roundtrip_still_merges(self, tmp_path):
        path = tmp_path / "cost_model.json"
        model = CostModel(path, cpu_count=2)
        model.observe("k", "serial", units=100, seconds=1.0)
        model.save()
        reloaded = CostModel(path, cpu_count=2)
        assert reloaded.rates["k"]["serial"] == pytest.approx(100.0)


class TestShmTransportConfig:
    def test_transport_validation(self):
        with pytest.raises(ValueError, match="transport"):
            ParallelConfig(transport="carrier-pigeon")

    def test_shm_upgrades_process_backends(self):
        config = ParallelConfig(workers=2, backend="process", transport="shm")
        assert config.resolved_backend() == "process_shm"
        assert config.uses_shm
        auto = ParallelConfig(workers=2, backend="auto", transport="shm")
        assert auto.resolved_backend() == "process_shm"

    def test_shm_never_touches_thread_or_serial(self):
        assert not ParallelConfig(transport="shm").uses_shm  # serial
        thread = ParallelConfig(workers=2, backend="thread", transport="shm")
        assert thread.resolved_backend() == "thread"
        assert not thread.uses_shm

    def test_env_transport_parsed(self, monkeypatch):
        from repro.utils.parallel import ENV_TRANSPORT

        monkeypatch.setenv(ENV_WORKERS, "2")
        monkeypatch.setenv(ENV_TRANSPORT, "shm")
        config = ParallelConfig.from_env()
        assert config.transport == "shm"
        assert config.resolved_backend() == "process_shm"

    def test_malformed_env_transport_warns_and_defaults(self, monkeypatch):
        from repro.utils.parallel import ENV_TRANSPORT

        monkeypatch.setenv(ENV_TRANSPORT, "smoke-signals")
        with pytest.warns(RuntimeWarning, match=ENV_TRANSPORT):
            config = ParallelConfig.from_env()
        assert config.transport == "pickle"

    def test_choose_candidates_track_transport(self):
        model = CostModel(cpu_count=4)
        model.observe("k", "serial", units=1_000, seconds=1.0)
        model.observe("k", "process", units=100_000, seconds=1.0)
        model.observe("k", "process_shm", units=200_000, seconds=1.0)
        pickle_choice = model.choose(
            "k", 50_000, ParallelConfig(workers=4, backend="process")
        )
        assert pickle_choice.backend == "process"  # never upgraded
        shm_choice = model.choose(
            "k",
            50_000,
            ParallelConfig(workers=4, backend="process", transport="shm"),
        )
        assert shm_choice.backend == "process_shm"


class TestWorkerPool:
    def test_acquire_release_reuses_the_pool(self):
        from repro.utils.parallel import WorkerPool

        keeper = WorkerPool()
        try:
            pool = keeper.acquire(2)
            assert pool.submit(_square, 3).result() == 9
            keeper.release(pool, dirty=False)
            assert keeper.warm
            again = keeper.acquire(2)
            assert again is pool
            assert keeper.spawns == 1
            keeper.release(again, dirty=False)
        finally:
            keeper.discard()

    def test_dirty_release_discards_the_pool(self):
        from repro.utils.parallel import WorkerPool

        keeper = WorkerPool()
        try:
            pool = keeper.acquire(2)
            keeper.release(pool, dirty=True)
            assert not keeper.warm
            fresh = keeper.acquire(2)
            assert fresh is not pool
            assert keeper.spawns == 2
            keeper.release(fresh, dirty=False)
        finally:
            keeper.discard()

    def test_wider_request_respawns(self):
        from repro.utils.parallel import WorkerPool

        keeper = WorkerPool()
        try:
            narrow = keeper.acquire(1)
            keeper.release(narrow, dirty=False)
            wide = keeper.acquire(2)
            assert wide is not narrow
            keeper.release(wide, dirty=False)
            # ... and the wide pool then serves narrower requests.
            assert keeper.acquire(1) is wide
            keeper.release(wide, dirty=False)
        finally:
            keeper.discard()

    def test_warm_pool_overhead_is_marginal(self):
        from repro.utils.parallel import (
            _WARM_POOL_OVERHEAD_S,
            get_worker_pool,
        )

        model = CostModel(cpu_count=2)
        keeper = get_worker_pool()
        keeper.discard()  # earlier tests may have left the keeper warm
        try:
            cold = model.pool_overhead("process_shm")
            assert cold >= _DEFAULT_OVERHEAD_FLOOR
            measured = model.calibrate_overhead("process_shm")
            assert keeper.warm
            assert measured < 0.35
            assert model.pool_overhead("process_shm") == pytest.approx(
                measured
            )
        finally:
            keeper.discard()
        # Cold again: back to billing the full fork.
        model.overheads.pop("process_shm", None)
        assert model.pool_overhead("process_shm") >= _DEFAULT_OVERHEAD_FLOOR


# The process fork overhead used when the warm pool is down.
_DEFAULT_OVERHEAD_FLOOR = 0.1
