"""Span tracing of the ``repro`` layers, installed from the benchmark.

The program carries no spans of its own yet, so the traced run wraps the
public functions of each layer from here, for the lifetime of one
:class:`Tracer` context, and restores the originals on exit.  Every call
records a span -- name, start, end and the index of the enclosing span --
in memory, and counters are bumped at the same boundaries.  A span's
self time is its duration minus the durations of its child spans, so
the self times of all spans plus the traced time outside any span add
up to the traced wall exactly.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _radius_pairs(counts, args, kwargs, out, before):
    counts["hashing.radius_neighbors.pairs"] += sum(len(row) for row in out)


def _associate_pairs(counts, args, kwargs, out, before):
    queries = len(_arg(args, kwargs, 0, "hashes"))
    medoids = len(_arg(args, kwargs, 1, "medoid_hashes"))
    counts["annotation.associate.pairs"] += queries * medoids


def _fit_clusters(counts, args, kwargs, out, before):
    counts["hawkes.fit.clusters"] += len(_arg(args, kwargs, 0, "sequences"))


def _classify_items(counts, args, kwargs, out, before):
    counts["monitor.classify_batch.items"] += len(_arg(args, kwargs, 1, "hashes"))


def _ingest_outcome(counts, args, kwargs, out, before):
    counts["stream.admitted"] += out["admitted"]
    counts["stream.shed"] += out["shed"]


def _compactions(counts, args, kwargs, out, before):
    counts["stream.compact.count"] += bool(out)


def _wal_size(args, kwargs):
    return args[0].total_bytes


def _wal_appended(counts, args, kwargs, out, before):
    counts["stream.wal.append_many.records"] += len(out)
    counts["stream.wal.append_many.bytes"] += args[0].total_bytes - before


# (span name, module, attribute, counter, pre-call hook).  A dotted
# attribute is a method, patched on its class; a plain one is a
# function, patched in its module and in every repro module that
# imported it by name.
LAYERS = (
    ("core.pipeline", "repro.core.pipeline", "run_pipeline", None, None),
    ("clustering.dbscan", "repro.clustering.dbscan", "dbscan", None, None),
    ("clustering.dbscan", "repro.clustering.dbscan", "dbscan_from_neighbors",
     None, None),
    ("hashing.radius_neighbors", "repro.hashing.pairwise", "radius_neighbors",
     _radius_pairs, None),
    ("clustering.medoid", "repro.clustering.medoid", "medoids_by_cluster",
     None, None),
    ("annotation.annotate", "repro.annotation.matcher", "annotate_clusters",
     None, None),
    ("annotation.associate", "repro.annotation.association",
     "associate_hashes", _associate_pairs, None),
    ("analysis.influence", "repro.analysis.influence", "influence_study",
     None, None),
    ("hawkes.fit", "repro.hawkes.fit", "fit_hawkes_em", _fit_clusters, None),
    ("hawkes.attribute", "repro.hawkes.attribution", "attribute_root_causes",
     None, None),
    ("hashing.mih_query", "repro.hashing.index",
     "MultiIndexHash.query_indices", None, None),
    ("hashing.mih_add", "repro.hashing.index", "MultiIndexHash.add",
     None, None),
    ("monitor.classify_batch", "repro.core.monitor",
     "MemeMonitor.classify_batch", _classify_items, None),
    ("service.open", "repro.service.service", "MemeMatchService.__init__",
     None, None),
    ("service.submit_many", "repro.service.service",
     "MemeMatchService.submit_many", None, None),
    ("service.admission", "repro.service.admission",
     "AdmissionQueue.offer_many", None, None),
    ("service.drain", "repro.service.service", "MemeMatchService.drain",
     None, None),
    ("stream.open", "repro.stream.ingester", "StreamIngester.__init__",
     None, None),
    ("stream.ingest", "repro.stream.ingester", "StreamIngester.ingest",
     _ingest_outcome, None),
    ("stream.compact", "repro.stream.ingester", "StreamIngester.compact",
     _compactions, None),
    ("stream.wal.append_many", "repro.stream.wal",
     "WriteAheadLog.append_many", _wal_appended, _wal_size),
    ("stream.fsync", "os", "fsync", None, None),
)


class Tracer:
    """Record spans, counters and GC pauses while entered."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.gc_pause_s = 0.0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None

    def __enter__(self) -> "Tracer":
        for name, module_name, attribute, count, before in LAYERS:
            self._install(name, module_name, attribute, count, before)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _install(self, name, module_name, attribute, count, before) -> None:
        owner_name, _, key = attribute.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[key]
        except (ImportError, AttributeError, KeyError):
            # A later change may move a layer: the run goes on without
            # its span, and the smoke check reports the gap.
            self.missing.append(f"{module_name}.{attribute}")
            return
        wrapper = self._wrap(original, name, count, before)
        owners = [owner]
        if not owner_name:
            owners += [
                loaded
                for loaded_name, loaded in list(sys.modules.items())
                if loaded is not module
                and (loaded_name == "repro" or loaded_name.startswith("repro."))
            ]
        for target in owners:
            for alias, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, alias, value))
                    setattr(target, alias, wrapper)

    def _wrap(self, fn, name, count, before):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out, state)
            return out

        return traced

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: busy time, self time and call count.

        Busy time counts only the outermost span of a name, so a layer
        that calls itself (``dbscan`` into ``dbscan_from_neighbors``) is
        not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        busy, own, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, parent) in enumerate(spans):
            own[name] += end - start - child[index]
            calls[name] += 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                busy[name] += end - start
        return busy, own, calls

    def closure_errors(self, window: tuple[float, float]) -> list[str]:
        """Spans that do not nest inside their parent or the traced wall.

        Nesting is what makes every self time non-negative and the self
        times plus the remainder outside all spans equal the wall.
        """
        errors = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            lo, hi = window if parent < 0 else self.spans[parent][1:3]
            if not lo <= start <= end <= hi:
                errors.append(f"span {index} ({name}) escapes its parent")
        return errors

    def dump(self, path: Path, window: tuple[float, float]) -> None:
        """Write the spans, relative to the traced wall's start, as JSON."""
        origin = window[0]
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "wall_s": window[1] - origin,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
        }
        path.write_text(json.dumps(payload))
