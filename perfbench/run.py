#!/usr/bin/env python3
"""The repository benchmark: batch, serve and stream over seeded worlds.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload {batch,serve,stream} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-digests N

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with
tracing off: set-up repeated and its median taken, one discarded
warm-up, then passes of ops for about ``--seconds``, all scaled to the
reference host speed.
``--trace 1`` alternates untraced and traced passes of fixed work for
about ``--seconds`` and reports the per-layer metrics as medians over
the traced passes; the spans of the last traced pass are written to
``perfbench/.out``.  Readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs are checked against their
references outside every timed section; a divergence is a failed op and
makes the exit code 1.  ``--smoke`` runs every workload in both modes on
a tiny world and checks the metric contract and the trace accounting.
``--record-digests N`` writes the expected batch output digests of world
seeds 0 to N-1 to ``perfbench/digests.json``.  perfbench/README.md
defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
CACHE = HERE / ".cache"  # generated worlds
DIGESTS = HERE / "digests.json"  # expected batch output digests
WORK = HERE / ".work"  # stream WAL directories, removed after each run
OUT = HERE / ".out"  # span dumps of traced runs

WORKLOADS = ("batch", "serve", "stream")

# The seed draws every cascade, image, hash and noise post of the world.
# Per-meme popularity is pinned (sigma 0): with the default log-normal
# draw one seed can make the most-posted meme several times costlier to
# fit, and batch throughput then follows the seed rather than the code.
WORLD = {"events_unit": 60.0, "noise_scale": 0.5, "popularity_sigma": 0.0}
SMOKE_WORLD = {"events_unit": 8.0, "noise_scale": 0.3, "popularity_sigma": 0.0}

# Even so, one world's cost follows its seed: over world seeds 0 to 39 a
# batch op took 0.58 to 1.12 s at the same host speed, most of it in
# Hawkes fits whose EM iterations follow the data.  So --seed selects
# WORLDS_PER_SEED worlds and a workload runs over the first WORLDS of
# them: summed over four worlds, batch op time spread 12% between
# quartiles over ten seeds, over two 19%.  Stream's ingest work follows
# the seed less, and serve replays one world's hashes.
WORLDS_PER_SEED = 4
WORLDS = {"batch": 4, "serve": 1, "stream": 2}

# Op time after which the reference loop is timed again (see Samples).
REFERENCE_SPAN_S = 0.1

# Seconds the reference loop takes at the reference host speed: its
# median on the reference host (2 CPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 0.04


def hermetic_env() -> None:
    """Clear ``REPRO_*`` and pin BLAS pools, before numpy or repro loads.

    A caller's ``REPRO_WORKERS``, ``REPRO_COMPILED`` and the rest must
    not change what is measured; child processes inherit the result.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def unit_of(metric: str) -> str:
    """A metric's unit, read off its name."""
    if metric == "throughput":
        return "1/s"
    for suffix, unit in (
        ("_ms", "ms"),
        ("_s", "s"),
        ("_mb", "MB"),
        ("_pct", "%"),
        ("_ratio", "ratio"),
        (".bytes", "bytes"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def world_config(seed: int, smoke: bool):
    from repro.communities import WorldConfig

    return WorldConfig(seed=seed, **(SMOKE_WORLD if smoke else WORLD))


def world_file(seed: int, smoke: bool) -> tuple[Path, str]:
    """Where the world of ``seed`` is cached, and its cache key."""
    config = world_config(seed, smoke)
    key = hashlib.sha256(repr(config).encode()).hexdigest()[:16]
    return CACHE / f"world-{key}.pkl", key


def generate_worlds(seeds, smoke: bool, parallel: int) -> None:
    """Generate the uncached worlds of ``seeds``, ``parallel`` at a time.

    Generation runs in child processes, before the run pins itself to
    one CPU, so neither its time nor its memory peak reaches the metrics.
    """
    pending = [seed for seed in seeds if not world_file(seed, smoke)[0].exists()]
    running: list[subprocess.Popen] = []
    try:
        while pending or running:
            while pending and len(running) < parallel:
                seed = pending.pop(0)
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--make-world", str(world_file(seed, smoke)[0]),
                    "--seed", str(seed),
                ]
                if smoke:
                    command.append("--smoke")
                running.append(subprocess.Popen(command))
            child = running.pop(0)
            if child.wait(timeout=600) != 0:
                raise RuntimeError(f"world generation exited {child.returncode}")
    finally:
        for child in running:
            child.kill()
            child.wait()


def load_world(seed: int, smoke: bool):
    """The cached world of ``seed`` and its cache key."""
    path, key = world_file(seed, smoke)
    with open(path, "rb") as handle:
        return pickle.load(handle), key


def make_world(path: Path, seed: int, smoke: bool) -> int:
    from repro.communities import SyntheticWorld

    world = SyntheticWorld.generate(world_config(seed, smoke))
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(partial, "wb") as handle:
        pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return 0


def world_seeds(name: str, seed: int) -> range:
    """The seeds of the worlds that workload ``name`` runs over at ``seed``."""
    first = WORLDS_PER_SEED * seed
    return range(first, first + WORLDS[name])


def committed_digests(smoke: bool) -> dict[str, str]:
    """The batch output digests in ``digests.json``, by world seed.

    They hold for the benchmark's world config only; the smoke world has
    none.
    """
    recorded = json.loads(DIGESTS.read_text())
    return {} if smoke or recorded["world"] != WORLD else recorded["digests"]


def record_digests(count: int) -> int:
    """Write ``digests.json`` for world seeds 0 to ``count - 1``.

    Run it only on code whose outputs are known to be right, and only
    when a change to the world generator or the pipeline is meant to
    change them.
    """
    from workloads import Batch, output_digest

    generate_worlds(range(count), False, len(os.sched_getaffinity(0)))
    digests = {}
    for seed in range(count):
        batch = Batch([load_world(seed, False)[0]], SRC, [None])
        batch.run_pass(_ignore)
        (result, study), = batch.outputs
        digests[str(seed)] = output_digest(result, study)
        print(f"world seed {seed}: {digests[str(seed)]}", flush=True)
    DIGESTS.write_text(
        json.dumps({"world": WORLD, "digests": digests}, indent=1) + "\n"
    )
    return 0


def host_fingerprint(cpus: int) -> dict:
    import numpy
    from repro.utils import compiled

    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_tier": compiled.tier(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _ignore(seconds: float, units: int) -> None:
    pass


def passes(seconds: float):
    """Yield once per pass until ``seconds`` are about used up.

    There is always one pass.  Another starts only while more than half
    of the last one's length is left, so a run's passes end within half
    a pass of ``seconds``, on either side.
    """
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        yield
        ended = time.perf_counter()
        if ended + (ended - started) / 2 >= deadline:
            return


class Samples:
    """Op latencies and the work rate of each pass, raw and scaled.

    A workload calls it after each op.  The reference loop is timed when
    a pass starts, again whenever ``REFERENCE_SPAN_S`` of op time has gone
    by since its last timing, and when the pass ends.  The pass's op
    times are divided by the host's slowdown over the pass: the median of
    those reference times over ``REFERENCE_S``.  A single reference time
    is too noisy to scale by: back to back, it swings by about 8% with a
    period of about 0.4 s.

    Nor does the scaling remove a slow spell: over 90 s of back-to-back
    serve passes, the mean op time spread 28% between quartiles raw and
    23% scaled.  Other tenants only ever slow a pass down, and every pass
    of a run does the same work, so the metrics are taken over the faster
    half of the passes (:meth:`faster_half`).
    """

    def __init__(self) -> None:
        self.passes: list[tuple[float, list[float]]] = []
        self.raw_latencies: list[float] = []
        self.raw_rates: list[float] = []
        self.slowdowns: list[float] = []

    def start_pass(self) -> None:
        self._references = [reference_seconds()]
        self._ops: list[float] = []
        self._units = 0
        self._since = 0.0

    def __call__(self, seconds: float, units: int) -> None:
        self._ops.append(seconds)
        self._units += units
        self._since += seconds
        if self._since >= REFERENCE_SPAN_S:
            self._references.append(reference_seconds())
            self._since = 0.0

    def end_pass(self) -> None:
        if self._since > 0.0:
            self._references.append(reference_seconds())
        slowdown = statistics.median(self._references) / REFERENCE_S
        rate = self._units / math.fsum(self._ops)
        self.raw_latencies += self._ops
        self.raw_rates.append(rate)
        self.passes.append(
            (rate * slowdown, [seconds / slowdown for seconds in self._ops])
        )
        self.slowdowns.append(slowdown)

    def faster_half(self) -> tuple[list[float], list[float]]:
        """Scaled rates and op latencies of the faster half of the passes.

        With an odd count the middle pass is kept too.
        """
        ranked = sorted(self.passes, key=lambda item: item[0], reverse=True)
        kept = ranked[: (len(ranked) + 1) // 2]
        return (
            [rate for rate, _ in kept],
            [seconds for _, latencies in kept for seconds in latencies],
        )


class Run:
    """What one invocation measured and found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.tracer = None
        self.window = (0.0, 0.0)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def check(self, workload, counted: bool = True) -> None:
        ops, failed, problems = workload.check_pass()
        if counted:
            self.attempted += ops
            self.failed += failed
        self.problems += problems


def reference_seconds() -> float:
    """Time of a fixed loop of the benchmark's own Python and numpy code.

    The loop runs none of ``repro``, so no change to the program can
    move it; only the host's speed can.
    """
    import numpy as np

    values = np.arange(1 << 14, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    start = time.perf_counter()
    buckets: dict[int, list[int]] = {}
    for value in values[:4096].tolist():
        buckets.setdefault(value & 255, []).append(value)
    for shift in range(1, 17):
        np.unique(values ^ (values >> np.uint64(shift)))
    return time.perf_counter() - start


def measure(workload, seconds: float, run: Run) -> None:
    """End-to-end metrics, tracing off, at the reference host speed.

    The shared host's speed swings by up to 2x within minutes.  The
    reference loop is timed between set-ups, and every tenth of a second
    of op time in a pass (see :class:`Samples`); set-up and op times are
    divided by the host's slowdown over the set-ups or the pass, so an op
    in a slow spell reads as it would at the reference speed.  The raw
    figures are printed as a readable line.
    """
    raw_setups, references = [], [reference_seconds()]
    for _ in range(workload.setup_repeats):
        gc.collect()
        raw_setups.append(workload.setup())
        references.append(reference_seconds())
    setup_slowdown = statistics.median(references) / REFERENCE_S
    workload.warm_up()
    run.check(workload, counted=False)
    samples = Samples()
    for _ in passes(seconds):
        gc.collect()
        samples.start_pass()
        workload.run_pass(samples)
        samples.end_pass()
        run.check(workload)
    rates, latencies = samples.faster_half()
    run.metrics = {
        "setup_s": statistics.median(raw_setups) / setup_slowdown,
        "throughput": statistics.median(rates),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(raw_setups),
        "throughput": statistics.median(samples.raw_rates),
        "latency_p50_ms": 1e3 * statistics.median(samples.raw_latencies),
    }
    speed = 1.0 / statistics.median(samples.slowdowns + [setup_slowdown])
    run.notes.append(
        f"raw (host at {speed:.4g}x the reference speed): "
        + " ".join(f"{name}={value:.6g}" for name, value in raw.items())
    )
    run.notes.append(
        f"{len(samples.passes)} passes, {len(samples.raw_latencies)} ops; "
        f"metrics over the faster {len(rates)} passes, {len(latencies)} ops"
    )
    run.notes.append(tail_note(samples.raw_latencies))


def tail_note(latencies: list[float]) -> str:
    """The p90 op latency, where more than ten ops lie beyond it."""
    if len(latencies) >= 2:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        beyond = sum(1 for value in latencies if value > p90)
        if beyond > 10:
            return (f"latency_p90_ms {1e3 * p90:.6g} ms "
                    f"({beyond} of {len(latencies)} ops beyond it)")
    return (f"latency_p90_ms not reported: {len(latencies)} ops leave "
            "ten or fewer beyond p90")


def full_pass(workload, tracer, run: Run):
    """One pass of fixed work, set-up included; returns its wall window."""
    gc.collect()
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        if workload.setup_in_pass:
            workload.setup()
        workload.run_pass(_ignore)
        end = time.perf_counter()
    run.check(workload)
    return start, end


def traced(workload, seconds: float, run: Run, spans_path: Path) -> None:
    """Per-layer metrics from traced passes, alternating with untraced ones."""
    from spans import Tracer

    workload.warm_up()
    run.check(workload, counted=False)
    untraced, samples = [], []
    for _ in passes(seconds):
        start, end = full_pass(workload, None, run)
        untraced.append(end - start)
        tracer = Tracer()
        window = full_pass(workload, tracer, run)
        run.problems += tracer.closure_errors(window)
        samples.append(
            layer_metrics(tracer, window[1] - window[0], workload.stats)
        )
        run.tracer, run.window = tracer, window
    run.tracer.dump(spans_path, run.window)
    if run.tracer.missing:
        run.notes.append(
            "layers not found, left untraced: " + ", ".join(run.tracer.missing)
        )
    run.metrics = {
        name: statistics.median([sample[name] for sample in samples])
        for name in samples[0]
    }
    run.metrics["trace.overhead_pct"] = 100.0 * (
        run.metrics["trace.wall_s"] / statistics.median(untraced) - 1.0
    )


def layer_metrics(tracer, wall: float, stats: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    busy, own, calls = tracer.layer_times()
    counts = tracer.counts
    submitted = stats.get("submitted", 0)
    offered = counts["stream.admitted"] + counts["stream.shed"]
    return {
        "core.pipeline.self_s": own["core.pipeline"],
        "hashing.radius_neighbors.busy_s": busy["hashing.radius_neighbors"],
        "hashing.radius_neighbors.pairs": counts["hashing.radius_neighbors.pairs"],
        "hashing.mih_query.busy_s": busy["hashing.mih_query"],
        "hashing.mih_query.calls": calls["hashing.mih_query"],
        "hashing.mih_add.busy_s": busy["hashing.mih_add"],
        "clustering.dbscan.self_s": own["clustering.dbscan"],
        "clustering.medoid.busy_s": busy["clustering.medoid"],
        "annotation.annotate.busy_s": busy["annotation.annotate"],
        "annotation.associate.busy_s": busy["annotation.associate"],
        "annotation.associate.pairs": counts["annotation.associate.pairs"],
        "analysis.influence.self_s": own["analysis.influence"],
        "hawkes.fit.busy_s": busy["hawkes.fit"],
        "hawkes.fit.clusters": counts["hawkes.fit.clusters"],
        "hawkes.fit.failed": stats.get("hawkes_failed", 0),
        "hawkes.attribute.busy_s": busy["hawkes.attribute"],
        "monitor.classify_batch.busy_s": busy["monitor.classify_batch"],
        "monitor.classify_batch.calls": calls["monitor.classify_batch"],
        "monitor.classify_batch.items": counts["monitor.classify_batch.items"],
        "service.open.busy_s": busy["service.open"],
        "service.submit_many.self_s": own["service.submit_many"],
        "service.admission.busy_s": busy["service.admission"],
        "service.drain.self_s": own["service.drain"],
        "service.served_ratio": stats["served"] / submitted if submitted else 0.0,
        "service.shed": stats.get("shed", 0),
        "service.timed_out": stats.get("timed_out", 0),
        "service.dead_lettered": stats.get("dead_lettered", 0),
        "stream.open.busy_s": busy["stream.open"],
        "stream.apply.self_s": own["stream.ingest"],
        "stream.wal.append_many.busy_s": busy["stream.wal.append_many"],
        "stream.wal.append_many.records": counts["stream.wal.append_many.records"],
        "stream.wal.append_many.bytes": counts["stream.wal.append_many.bytes"],
        "stream.fsync.calls": calls["stream.fsync"],
        "stream.fsync.busy_s": busy["stream.fsync"],
        "stream.compact.busy_s": busy["stream.compact"],
        "stream.compact.count": counts["stream.compact.count"],
        "stream.admitted_ratio": (
            counts["stream.admitted"] / offered if offered else 0.0
        ),
        "stream.buffer_peak": stats.get("buffer_peak", 0),
        "runtime.gc_pause_s": tracer.gc_pause_s,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - math.fsum(own.values()),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Run:
    from workloads import Batch, Serve, Stream

    seeds = world_seeds(name, seed)
    worlds = []
    for world_seed in seeds:
        world, key = load_world(world_seed, smoke)
        worlds.append(world)
        print(f"world seed={world_seed} config={key} posts={len(world.posts)}",
              flush=True)
    run = Run()
    work_dir = None
    if name == "batch":
        digests = committed_digests(smoke)
        expected = [digests.get(str(world_seed)) for world_seed in seeds]
        if None in expected:
            run.notes.append(
                f"no committed batch digest for some world seeds of seed "
                f"{seed}: their ops are checked against the run's first op"
            )
        workload = Batch(worlds, SRC, expected)
    elif name == "serve":
        workload = Serve(worlds[0], seed)
    else:
        WORK.mkdir(parents=True, exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix="stream-", dir=WORK))
        workload = Stream(worlds, work_dir)
    try:
        if trace:
            traced(workload, seconds, run, OUT / f"spans-{name}-seed{seed}.json")
        else:
            measure(workload, seconds, run)
    finally:
        workload.close()
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)
    return run


def trace_gaps(run: Run) -> list[str]:
    """Ways the last traced pass fails to account for its wall."""
    tracer, (start, end) = run.tracer, run.window
    wall = end - start
    tolerance = 1e-9 * max(1.0, wall)
    _, own, _ = tracer.layer_times()
    roots = math.fsum(
        stop - begin for _, begin, stop, parent in tracer.spans if parent < 0
    )
    unattributed = run.metrics["trace.unattributed_s"]
    gaps = [f"layer not found: {name}" for name in tracer.missing]
    gaps += tracer.closure_errors(run.window)
    if not tracer.spans:
        gaps.append("no spans recorded")
    if abs(math.fsum(own.values()) - roots) > tolerance:
        gaps.append("self times do not add up to the top-level spans")
    if not 0.0 <= unattributed <= wall or abs(roots + unattributed - wall) > tolerance:
        gaps.append(
            f"self times plus {unattributed:.6g} s unattributed do not "
            f"make the {wall:.6g} s traced wall"
        )
    return gaps


def smoke(spec: dict) -> int:
    """Tiny-world self-check of the metric contract and trace accounting."""
    errors = []
    for name in WORKLOADS:
        for trace in (False, True):
            where = f"{name} --trace {int(trace)}"
            run = run_workload(name, 1, 0.0, trace, smoke=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            names = sorted(metric["name"] for metric in declared)
            if sorted(run.metrics) != names:
                errors.append(
                    f"{where}: emits {sorted(run.metrics)}, declares {names}"
                )
            for metric in declared:
                value = run.metrics.get(metric["name"])
                if unit_of(metric["name"]) != metric["unit"]:
                    errors.append(
                        f"{where}: {metric['name']} is in "
                        f"{unit_of(metric['name'])}, declared {metric['unit']}"
                    )
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(value)
                ):
                    errors.append(f"{where}: {metric['name']} = {value!r}")
            errors += [f"{where}: {problem}" for problem in run.problems]
            if run.failed:
                errors.append(f"{where}: {run.failed} failed ops")
            if trace:
                errors += [f"{where}: {gap}" for gap in trace_gaps(run)]
    for error in errors:
        print(f"smoke: {error}", file=sys.stderr)
    print("smoke: " + ("FAILED" if errors else "ok"), flush=True)
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-world self-check of every workload in both modes",
    )
    parser.add_argument(
        "--record-digests",
        type=int,
        metavar="N",
        help="write perfbench/digests.json for world seeds 0 to N-1 and exit",
    )
    parser.add_argument("--make-world", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    hermetic_env()
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            "perfbench: run it from the root of a checkout that holds "
            "src/repro and BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.make_world is not None:
        return make_world(args.make_world, args.seed, args.smoke)
    if args.record_digests is not None:
        return record_digests(args.record_digests)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    spec = json.loads(SPEC.read_text())
    cpus = os.sched_getaffinity(0)
    names, seed = (WORKLOADS, 1) if args.smoke else ((args.workload,), args.seed)
    generate_worlds(
        sorted({world for name in names for world in world_seeds(name, seed)}),
        args.smoke,
        len(cpus),
    )
    # The host's CPUs speed up and slow down each on its own, so the run
    # and its children stay on one: the reference loop then times the
    # CPU the ops run on.
    os.sched_setaffinity(0, {min(cpus)})
    if args.smoke:
        return smoke(spec)
    print("host " + json.dumps(host_fingerprint(len(cpus))), flush=True)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for metric in declared:
        value = run.metrics[metric["name"]]
        print(f"  {metric['name']:<34} {value:.6g} {metric['unit']}")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric["name"]: {
                "value": run.metrics[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
