"""Hamming-space indexes and the batched radius join (Step 2).

The paper ran all-pairs comparisons on GPUs; at laptop scale the same
radius queries ("all hashes within Hamming distance r of q") rest on
Norouzi et al.'s multi-index hashing (MIH).  The 64-bit code is split
into ``m`` disjoint chunks; by pigeonhole, any code within distance
``r`` of the query agrees with it within ``r // m`` bits on at least
one chunk, so candidates are found by probing near-exact chunk matches
and verified exactly.

* :func:`radius_join` — the one kernel behind every radius
  neighbourhood: Step 2's self-join, its incremental merge (the cache's
  delta path and stream compaction) and Step 5's medoid annotation.  It
  runs MIH whole-array over a batch of queries and picks ``m`` by exact
  cost, or falls back to a blocked dense scan where no ``m`` wins.
* :class:`NeighborGraph` — the CSR form every radius neighbourhood
  takes, from the join through DBSCAN to the stream checkpoint.
* :class:`MultiIndexHash` — the same pigeonhole idea as a persistent
  per-query index with 8-bit chunks and incremental :meth:`add`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import hamming_to_many, popcount

__all__ = ["MultiIndexHash", "NeighborGraph", "radius_join"]


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Radius neighbourhoods in CSR form.

    Row ``i`` is ``indices[indptr[i] : indptr[i + 1]]``; both arrays
    are ``int64``.  Rows read like a list of arrays: ``len``,
    iteration and ``graph[i]`` (a view) all work.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(
        cls, row: np.ndarray, col: np.ndarray, n: int, *, presorted: bool = False
    ) -> "NeighborGraph":
        """The graph over ``n`` points of the ``(row, col)`` pairs, which
        one sort puts in row-major order unless they are ``presorted``."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        if not presorted:
            key = np.sort(row * n + col)
            row, col = key // n, key % n
        return cls.from_lengths(np.bincount(row, minlength=n), col)

    @classmethod
    def from_lengths(cls, lengths, indices: np.ndarray) -> "NeighborGraph":
        """The graph whose consecutive rows have the given ``lengths``."""
        indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        return cls(indptr=indptr, indices=np.asarray(indices, dtype=np.int64))

    @classmethod
    def from_rows(cls, rows) -> "NeighborGraph":
        """A graph holding ``rows`` as given (a graph passes through)."""
        if isinstance(rows, cls):
            return rows
        rows = [np.asarray(r, dtype=np.int64).reshape(-1) for r in rows]
        return cls.from_lengths(
            [r.size for r in rows], np.concatenate([np.empty(0, np.int64), *rows])
        )

    def owners(self) -> np.ndarray:
        """The row of every entry of :attr:`indices`."""
        n = len(self)
        return np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))

    def __len__(self) -> int:
        return int(self.indptr.size) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        if i < 0:
            i += len(self)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        edges = self.indptr.tolist()
        return (self.indices[a:b] for a, b in zip(edges[:-1], edges[1:]))


def _bytes_within(value: int, max_distance: int) -> list[int]:
    """All byte values within Hamming distance ``max_distance`` of ``value``."""
    out = {value}
    frontier = {value}
    for _ in range(max_distance):
        nxt = set()
        for v in frontier:
            for bit in range(8):
                nxt.add(v ^ (1 << bit))
        frontier = nxt - out
        out |= nxt
    return sorted(out)


class MultiIndexHash:
    """Multi-index hashing over 64-bit codes with 8-bit chunks.

    Parameters
    ----------
    hashes:
        1-D ``uint64`` array; payloads are positions in this array.
    """

    N_CHUNKS = 8

    def __init__(self, hashes: np.ndarray) -> None:
        self.hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
        # chunk_values[c][i] = byte c of hash i (little-endian byte order;
        # the order is irrelevant as long as it is consistent).
        self._chunk_values = self.hashes.view(np.uint8).reshape(-1, self.N_CHUNKS)
        # Buckets are built with one stable argsort per chunk instead of
        # an n*8 Python loop; within a byte value the stable sort keeps
        # indices ascending, identical to the incremental appends in add().
        self._buckets: list[dict[int, list[int]]] = []
        for c in range(self.N_CHUNKS):
            bucket: dict[int, list[int]] = {}
            if self.hashes.size:
                values = self._chunk_values[:, c]
                order = np.argsort(values, kind="stable").astype(np.int64)
                sorted_values = values[order]
                boundaries = np.flatnonzero(np.diff(sorted_values)) + 1
                starts = np.concatenate(([0], boundaries))
                stops = np.concatenate((boundaries, [sorted_values.size]))
                for start, stop in zip(starts, stops):
                    bucket[int(sorted_values[start])] = order[start:stop].tolist()
            self._buckets.append(bucket)

    def __len__(self) -> int:
        return int(self.hashes.size)

    def add(self, new_hashes: np.ndarray) -> None:
        """Incrementally index more hashes (positions continue the array).

        Appending then querying is identical to rebuilding the index
        over the concatenated array — this is what lets a run with N
        new images extend yesterday's neighbourhoods instead of
        re-indexing the whole collection.
        """
        new = np.ascontiguousarray(new_hashes, dtype=np.uint64).reshape(-1)
        if new.size == 0:
            return
        offset = int(self.hashes.size)
        self.hashes = np.concatenate([self.hashes, new])
        self._chunk_values = self.hashes.view(np.uint8).reshape(-1, self.N_CHUNKS)
        new_chunks = new.view(np.uint8).reshape(-1, self.N_CHUNKS)
        for i in range(new.size):
            for c in range(self.N_CHUNKS):
                key = int(new_chunks[i, c])
                self._buckets[c].setdefault(key, []).append(offset + i)

    def query(self, value: int, radius: int) -> list[tuple[int, int]]:
        """Return ``(index, distance)`` pairs within ``radius`` of ``value``.

        Exact: candidates from the chunk probes are verified with a full
        Hamming computation.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if self.hashes.size == 0:
            return []
        per_chunk = radius // self.N_CHUNKS
        query_bytes = np.frombuffer(
            np.uint64(value).tobytes(), dtype=np.uint8
        )
        candidates: set[int] = set()
        for c in range(self.N_CHUNKS):
            bucket = self._buckets[c]
            for probe in _bytes_within(int(query_bytes[c]), per_chunk):
                hits = bucket.get(probe)
                if hits:
                    candidates.update(hits)
        if not candidates:
            return []
        idx = np.fromiter(candidates, dtype=np.int64)
        distances = hamming_to_many(np.uint64(value), self.hashes[idx])
        keep = distances <= radius
        return list(zip(idx[keep].tolist(), distances[keep].tolist()))

    def query_indices(self, value: int, radius: int) -> np.ndarray:
        """Like :meth:`query` but returns a sorted, duplicate-free index array.

        The candidate probes emit indices in arbitrary set order;
        ``np.unique`` pins the documented contract (sorted ascending, no
        duplicates) so downstream consumers see a canonical neighbour
        order.
        """
        pairs = self.query(value, radius)
        if not pairs:
            return np.empty(0, dtype=np.int64)
        return np.unique(
            np.fromiter((i for i, _ in pairs), dtype=np.int64, count=len(pairs))
        )

    def radius_neighbors(self, radius: int) -> NeighborGraph:
        """Neighbour rows (sorted, self included) for every indexed hash."""
        return radius_join(self.hashes, self.hashes, radius)


# Probe entries plus candidate pairs materialised per query block: the
# join's transient memory stays at a few MB whatever the radius.
_PAIR_BUDGET = 1 << 18

# Cost model in nanoseconds, fitted by least squares to self-joins of
# 1k-14k hashes at radius 0-14 (one Intel Xeon core, numpy 2.4): the
# fixed cost of a probe plan, one probe of a bucket, one candidate
# verified, one bucket-table key, and one pair of the dense scan.
_NS_PLAN = 300_000.0
_NS_PROBE = 20.0
_NS_CANDIDATE = 15.0
_NS_BUCKET = 8.0
_NS_DENSE = 3.1

# Chunk counts that keep every chunk between 4 and 16 bits wide, so a
# bucket table has at most 2**16 keys and sorts by radix.
_MIN_CHUNKS, _MAX_CHUNKS = 4, 16


def _chunk_layout(n_chunks: int) -> list[tuple[int, int]]:
    """``(shift, width)`` of each chunk; widths differ by at most one bit."""
    base, extra = divmod(64, n_chunks)
    widths = [base + 1] * extra + [base] * (n_chunks - extra)
    shifts = np.cumsum([0] + widths[:-1]).tolist()
    return list(zip(shifts, widths))


@functools.lru_cache(maxsize=None)
def _flip_ball(width: int, radius: int) -> np.ndarray:
    """Every ``width``-bit mask with at most ``radius`` bits set."""
    masks = [0]
    for k in range(1, min(radius, width) + 1):
        masks.extend(
            sum(1 << bit for bit in bits)
            for bits in itertools.combinations(range(width), k)
        )
    ball = np.array(masks, dtype=np.int64)
    ball.flags.writeable = False
    return ball


def _chunk_keys(hashes: np.ndarray, shift: int, width: int) -> np.ndarray:
    mask = np.uint64((1 << width) - 1)
    return ((hashes >> np.uint64(shift)) & mask).astype(np.int64)


def _probe_plan(
    queries: np.ndarray, corpus: np.ndarray, radius: int, self_join: bool
):
    """The cheapest MIH plan, or ``None`` when the dense scan costs less.

    Each per-chunk radius fixes the smallest chunk count ``m`` with
    ``radius // m`` equal to it; more chunks at the same per-chunk
    radius only add probes and narrower, fuller buckets.  Each option's
    probe count is exact from the layout alone; its candidate count is
    exact from one ``bincount`` per chunk, the corpus bucket sizes
    summed over each occurring query key's flip ball.  Options are
    costed cheapest floor first, and the search stops once a floor
    exceeds the best cost.
    """
    n_queries = int(queries.size)
    options = []
    for per_chunk in range(radius // _MIN_CHUNKS + 1):
        n_chunks = max(_MIN_CHUNKS, radius // (per_chunk + 1) + 1)
        if n_chunks > _MAX_CHUNKS:
            continue
        layout = _chunk_layout(n_chunks)
        per_chunk = radius // n_chunks
        probes = n_queries * sum(
            math.comb(width, k)
            for _, width in layout
            for k in range(min(per_chunk, width) + 1)
        )
        buckets = sum(1 << width for _, width in layout)
        floor = _NS_PLAN + _NS_PROBE * probes + _NS_BUCKET * buckets
        options.append((floor, per_chunk, layout))
    best_cost, best = _NS_DENSE * n_queries * int(corpus.size), None
    for floor, per_chunk, layout in sorted(options):
        if floor >= best_cost:
            break
        corpus_keys, query_keys, sizes = [], [], []
        work = np.zeros(n_queries, dtype=np.int64)
        for shift, width in layout:
            ck = _chunk_keys(corpus, shift, width)
            qk = ck if self_join else _chunk_keys(queries, shift, width)
            size = np.bincount(ck, minlength=1 << width)
            present = np.flatnonzero(
                size if self_join else np.bincount(qk, minlength=1 << width)
            )
            ball = _flip_ball(width, per_chunk)
            reach = np.zeros(present.size, dtype=np.int64)
            step = max(1, _PAIR_BUDGET // max(int(present.size), 1))
            for lo in range(0, ball.size, step):
                flips = ball[None, lo : lo + step]
                reach += size[present[:, None] ^ flips].sum(axis=1)
            per_key = np.zeros(1 << width, dtype=np.int64)
            per_key[present] = reach
            work += per_key[qk]
            corpus_keys.append(ck)
            query_keys.append(qk)
            sizes.append(size)
        cost = floor + _NS_CANDIDATE * int(work.sum())
        if cost < best_cost:
            best_cost = cost
            best = (per_chunk, layout, corpus_keys, query_keys, sizes, work)
    return best


def _dense_pairs(
    queries: np.ndarray, corpus: np.ndarray, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(query, position)`` pairs within ``radius``, by dense scan."""
    step = max(1, _PAIR_BUDGET // max(int(corpus.size), 1))
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    for lo in range(0, int(queries.size), step):
        distances = popcount(queries[lo : lo + step, None] ^ corpus[None, :])
        row, col = np.nonzero(distances <= radius)
        rows.append(row + lo)
        cols.append(col)
    return np.concatenate(rows), np.concatenate(cols)


def _probe_pairs(
    queries: np.ndarray, corpus: np.ndarray, radius: int, plan
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(query, position)`` pairs within ``radius``, by MIH probes."""
    per_chunk, layout, corpus_keys, query_keys, sizes, work = plan
    n_queries, n_corpus = int(queries.size), int(corpus.size)
    # The chunks' counting-sort bucket tables, concatenated: chunk c's
    # bucket k is order[start[slot] : start[slot] + size[slot]] at
    # slot = base[c] + k, and order holds corpus positions, ascending
    # within a bucket.
    flips = [_flip_ball(width, per_chunk) for _, width in layout]
    probe_chunk = np.repeat(np.arange(len(layout)), [f.size for f in flips])
    probe_flip = np.concatenate(flips)
    base = np.cumsum([0] + [1 << width for _, width in layout[:-1]])
    probe_base = base[probe_chunk]
    n_probes = int(probe_flip.size)
    order = np.concatenate(
        [np.argsort(ck.astype(np.uint16), kind="stable") for ck in corpus_keys]
    )
    size = np.concatenate(sizes)
    start = np.concatenate(
        [c * n_corpus + np.cumsum(sz) - sz for c, sz in enumerate(sizes)]
    )
    keys = np.stack(query_keys, axis=1)
    # Query blocks whose probes plus candidates fit the pair budget.
    ends = np.cumsum(work + n_probes)
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    lo = 0
    while lo < n_queries:
        spent = int(ends[lo - 1]) if lo else 0
        cut = np.searchsorted(ends, spent + _PAIR_BUDGET, "right")
        hi = max(lo + 1, int(cut))
        slot = (keys[lo:hi, probe_chunk] ^ probe_flip) + probe_base
        slot = slot.reshape(-1)
        counts = size[slot]
        hit = np.flatnonzero(counts)
        counts = counts[hit]
        stops = np.cumsum(counts)
        total = int(stops[-1]) if stops.size else 0
        owner = np.repeat(hit // n_probes, counts)
        skew = np.repeat(start[slot[hit]] - stops + counts, counts)
        position = order[np.arange(total) + skew]
        close = popcount(queries[owner + lo] ^ corpus[position]) <= radius
        # A pair near on several chunks was found once per chunk: sort
        # the block's pairs into row order and drop the repeats.
        pair = np.sort(owner[close] * n_corpus + position[close])
        if pair.size:
            pair = pair[np.concatenate(([True], pair[1:] != pair[:-1]))]
        rows.append(pair // n_corpus + lo)
        cols.append(pair % n_corpus)
        lo = hi
    return np.concatenate(rows), np.concatenate(cols)


def _join_pairs(
    queries: np.ndarray,
    corpus: np.ndarray,
    radius: int,
    self_join: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``(query, position)`` pairs of :func:`radius_join`."""
    radius = min(radius, 64)  # every pair is within 64 bits
    plan = None
    if queries.size and corpus.size:
        plan = _probe_plan(queries, corpus, radius, self_join)
    if plan is None:
        return _dense_pairs(queries, corpus, radius)
    return _probe_pairs(queries, corpus, radius, plan)


def radius_join(
    queries: np.ndarray, corpus: np.ndarray, radius: int
) -> NeighborGraph:
    """Positions in ``corpus`` within Hamming ``radius`` of each query.

    Row ``i`` of the returned :class:`NeighborGraph` is the sorted,
    duplicate-free ``int64`` array of every ``j`` with
    ``hamming(queries[i], corpus[j]) <= radius``; passing one array as
    both arguments is the self-join, where every row holds its own
    index.

    Whole-array MIH: per chunk, a counting-sort bucket table over the
    corpus keys (``bincount`` plus ``cumsum``); every query's chunk key
    XOR each flip mask of the ``radius // m`` ball picks a bucket; the
    bucket ranges expand into candidate pairs, verified by one
    ``popcount``, and a pair found through several chunks is kept once.
    ``m`` is chosen from the exact probe and candidate counts of each
    option (see :func:`_probe_plan`), and where the dense scan costs
    less it runs instead.  Both paths work in query blocks of about
    ``2**18`` pairs.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    self_join = corpus is queries
    queries = np.ascontiguousarray(queries, dtype=np.uint64).reshape(-1)
    corpus = (
        queries
        if self_join
        else np.ascontiguousarray(corpus, dtype=np.uint64).reshape(-1)
    )
    row, col = _join_pairs(queries, corpus, int(radius), self_join)
    return NeighborGraph.from_pairs(row, col, int(queries.size), presorted=True)
