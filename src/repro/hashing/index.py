"""Hamming-space indexes and the radius join (Step 2).

The paper ran all-pairs comparisons on GPUs; at laptop scale the same
radius queries ("all hashes within Hamming distance r of q") rest on
Norouzi et al.'s multi-index hashing (MIH).  The 64-bit code is split
into ``m`` disjoint chunks; by pigeonhole, any code within distance
``r`` of the query agrees with it within ``r // m`` bits on at least
one chunk, so candidates are found by probing near-exact chunk matches
and verified exactly.

* :class:`RadiusIndex` — the one kernel behind every radius
  neighbourhood, an appendable bucket index whose ``add`` returns each
  unordered pair within the radius once.  Step 2's cold self-join is
  one ``add`` on an empty index, the cache's delta path and stream
  compaction ``add`` the new hashes to the index over the old ones, and
  Step 5's medoid annotation (:func:`radius_join`) is a ``query``.
* :class:`NeighborGraph` — the CSR form every radius neighbourhood
  takes, from the join through DBSCAN to the stream checkpoint.
* :class:`MultiIndexHash` — per-query lookups over the same index.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import hamming_to_many, popcount

__all__ = ["MultiIndexHash", "NeighborGraph", "RadiusIndex", "radius_join"]


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
        cls, row: np.ndarray, col: np.ndarray, n: int, *, width: int | None = None
    ) -> "NeighborGraph":
        """The graph over ``n`` rows of the ``(row, col)`` pairs, whose
        columns are below ``width`` (``n`` unless given)."""
        width = max(n if width is None else width, 1)
        key = np.asarray(row, dtype=np.int64) * width + np.asarray(col, dtype=np.int64)
        return cls._from_keys(np.sort(key), n, width)

    @classmethod
    def from_join(cls, a: np.ndarray, b: np.ndarray, n: int) -> "NeighborGraph":
        """The graph over ``n`` points of the pairs ``(a, b)`` that
        :meth:`RadiusIndex.add` returns on an empty index."""
        empty = np.empty(0, dtype=np.int64)
        return cls.from_rows([]).grown(empty, n, a, b, np.arange(n))

    @classmethod
    def _from_keys(cls, key: np.ndarray, n: int, width: int) -> "NeighborGraph":
        """The graph of the sorted keys ``row * width + col``."""
        return cls.from_lengths(np.bincount(key // width, minlength=n), key % width)

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

    def grown(
        self, position: np.ndarray, n: int, a: np.ndarray, b: np.ndarray, added
    ) -> "NeighborGraph":
        """This graph moved into ``n`` points, plus the unordered pairs
        ``(a, b)`` both ways and the diagonal of the ``added`` points.

        Row and column ``i`` become ``position[i]``, which must increase
        strictly, so the moved entries stay in order and one stable sort
        merges them with the new entries' sorted keys in linear time.  No
        new pair may repeat a moved one.
        """
        position = np.asarray(position, dtype=np.int64)
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        key = np.concatenate([a * n + b, b * n + a, np.asarray(added) * (n + 1)])
        moved = position[self.owners()] * n + position[self.indices]
        key = np.sort(np.concatenate([moved, np.sort(key)]), kind="stable")
        return self._from_keys(key, n, max(n, 1))

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


class MultiIndexHash:
    """Per-query radius search over ``hashes`` at any radius: each radius
    gets a :class:`RadiusIndex`, planned once for the whole corpus as its
    queries, which :meth:`add` drops."""

    def __init__(self, hashes: np.ndarray) -> None:
        self.hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
        self._indexes: dict[int, RadiusIndex] = {}

    def __len__(self) -> int:
        return int(self.hashes.size)

    def add(self, new_hashes: np.ndarray) -> None:
        """Index more hashes (positions continue the array)."""
        new = np.ascontiguousarray(new_hashes, dtype=np.uint64).reshape(-1)
        self.hashes = np.concatenate([self.hashes, new])
        self._indexes.clear()

    def query(self, value: int, radius: int) -> list[tuple[int, int]]:
        """``(index, distance)`` pairs within ``radius`` of ``value``."""
        found = self.query_indices(value, radius)
        distances = hamming_to_many(np.uint64(value), self.hashes[found])
        return list(zip(found.tolist(), distances.tolist()))

    def query_indices(self, value: int, radius: int) -> np.ndarray:
        """The sorted positions within ``radius`` of ``value``."""
        if radius not in self._indexes:
            self._indexes[radius] = RadiusIndex(radius, self.hashes)
            self._indexes[radius]._prepare(self.hashes)
        return np.sort(self._indexes[radius].query([value])[1])


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


def _probe_plan(queries: np.ndarray, corpus: np.ndarray, radius: int):
    """The cheapest MIH plan, or ``None`` when the dense scan costs less.

    A plan is ``(per_chunk, layout, keys, sizes)``, with the corpus keys
    and bucket sizes per chunk.
    Each per-chunk radius fixes the smallest chunk count with it.  An
    option's probe count is exact from the layout; its candidate count
    is exact from one ``bincount`` per chunk, the bucket sizes summed
    over each query key's flip ball.  Options are costed cheapest floor
    first, until a floor exceeds the best cost.
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
        keys, sizes, work = [], [], 0
        for shift, width in layout:
            key = _chunk_keys(corpus, shift, width)
            size = np.bincount(key, minlength=1 << width)
            asked = np.bincount(
                _chunk_keys(queries, shift, width), minlength=1 << width
            )
            present = np.flatnonzero(asked)
            ball = _flip_ball(width, per_chunk)
            step = max(1, _PAIR_BUDGET // max(int(present.size), 1))
            for lo in range(0, ball.size, step):
                reach = size[present[:, None] ^ ball[None, lo : lo + step]]
                work += int(asked[present] @ reach.sum(axis=1))
            keys.append(key)
            sizes.append(size)
        cost = floor + _NS_CANDIDATE * work
        if cost < best_cost:
            best_cost = cost
            best = (per_chunk, layout, keys, sizes)
    return best


def _dense_pairs(
    queries: np.ndarray, corpus: np.ndarray, radius: int, first: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(query, position)`` pairs within ``radius``, by dense scan.

    With ``first``, query ``i`` is ``corpus[first + i]`` and pairs only
    with the positions before its own.
    """
    step = max(1, _PAIR_BUDGET // max(int(corpus.size), 1))
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    for lo in range(0, int(queries.size), step):
        block = queries[lo : lo + step, None]
        end = corpus.size if first is None else first + lo + block.size
        row, col = np.nonzero(popcount(block ^ corpus[:end]) <= radius)
        if first is not None:
            keep = col < first + lo + row
            row, col = row[keep], col[keep]
        rows.append(row + lo)
        cols.append(col)
    return np.concatenate(rows), np.concatenate(cols)


class RadiusIndex:
    """An appendable multi-index-hashing index at one Hamming radius.

    Per chunk, a counting-sort table lists each key's bucket of
    insertion positions in ascending order (one flat ``order`` array,
    and each bucket's ``start`` and ``size``).  :func:`_probe_plan`
    plans the tables for the hashes about to probe (an add's new ones)
    when the index first answers and again once it has doubled; in
    between, :meth:`add` splices new positions in at the ends of their
    buckets.  Where the dense scan is cheaper the index scans.
    ``hashes`` are indexed without joining them to each other.
    """

    def __init__(self, radius: int, hashes=()) -> None:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.radius = min(int(radius), 64)  # every pair is within 64 bits
        self.hashes = np.ascontiguousarray(hashes, dtype=np.uint64).reshape(-1)
        self._planned = 0  # entries at the last plan
        self._plan = None  # (per_chunk, layout, base), or None to scan
        self._tabled = 0  # entries in the tables

    def __len__(self) -> int:
        return int(self.hashes.size)

    def add(self, new):
        """Index ``new``; return ``(a, b)``, the positions of every pair
        within the radius that it makes with itself or the earlier
        hashes, each in one orientation, a hash never with itself.

        An added hash probes every bucket for the earlier hashes, but for
        the other added ones only buckets of a higher key and, in its
        own, the positions before it; a pair is kept on the first chunk
        where it is near.
        """
        n_old = len(self)
        new = np.ascontiguousarray(new, dtype=np.uint64).reshape(-1)
        self.hashes = np.concatenate([self.hashes, new])
        self._prepare(new)
        row, col = self._find(new, n_old)
        return row + n_old, col

    def query(self, queries):
        """Every ``(row, position)`` within the radius of ``queries[row]``,
        each once, inserting nothing."""
        queries = np.ascontiguousarray(queries, dtype=np.uint64).reshape(-1)
        self._prepare(queries)
        return self._find(queries, None)

    def _prepare(self, queries) -> None:
        """Plan for the probing ``queries`` while the index scans or once
        it has doubled since its last plan, else splice new positions in."""
        n, hashes = len(self), self.hashes
        if n and (self._plan is None or n >= 2 * self._planned):
            self._planned = n
            plan = _probe_plan(queries, hashes, self.radius)
            self._plan = None
            if plan is not None:
                per_chunk, layout, keys, sizes = plan
                base = np.cumsum([0] + [1 << width for _, width in layout[:-1]])
                self._plan = (per_chunk, layout, base)
                self._order = np.concatenate(
                    [np.argsort(key.astype(np.uint16), kind="stable") for key in keys]
                )
                self._size = np.concatenate(sizes)
                self._tabled = n
        elif self._plan is not None and self._tabled < n:
            # Splice in slot order, so ties at one index keep bucket order.
            slot = self._slots(hashes[self._tabled :]).T.reshape(-1)
            position = np.tile(np.arange(self._tabled, n), len(self._plan[1]))
            by_slot = np.argsort(slot, kind="stable")
            end = np.cumsum(self._size)
            self._order = np.insert(self._order, end[slot[by_slot]], position[by_slot])
            self._size += np.bincount(slot, minlength=self._size.size)
            self._tabled = n
        else:
            return  # the tables are as the last call left them
        if self._plan is not None:
            self._start = np.cumsum(self._size) - self._size

    def _slots(self, hashes: np.ndarray) -> np.ndarray:
        """Each hash's bucket per chunk, as indices into the flat tables."""
        _, layout, base = self._plan
        keys = [_chunk_keys(hashes, shift, width) for shift, width in layout]
        return np.stack(keys, axis=1) + base

    def _find(
        self, queries: np.ndarray, first: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(query, position)`` pairs of :meth:`add` or :meth:`query`;
        with ``first``, the queries are the hashes just added from
        position ``first`` on."""
        corpus, radius = self.hashes, self.radius
        if self._plan is None:
            return _dense_pairs(queries, corpus, radius, first)
        per_chunk, layout, base = self._plan
        size, start = self._size, self._start
        below = size  # per bucket, the entries probed from a higher key
        slots = self._slots(queries)
        if first is not None:
            below = size - np.bincount(slots.reshape(-1), minlength=size.size)
            where = np.empty(self._order.size, dtype=np.int64)
            offset = np.arange(len(layout)) * len(self)
            where[self._order + np.repeat(offset, len(self))] = np.arange(where.size)
            before = where[np.arange(first, len(self))[:, None] + offset]
            before -= start[slots]
        rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        masks = [(np.uint64(s), np.uint64((1 << w) - 1)) for s, w in layout]
        keys = slots - base
        for c, (_, width) in enumerate(layout):
            table = slice(base[c], base[c] + (1 << width))
            c_size, c_start, c_below = size[table], start[table], below[table]
            flips = _flip_ball(width, per_chunk)
            step = max(1, _PAIR_BUDGET // flips.size)
            for lo in range(0, int(queries.size), step):
                key = keys[lo : lo + step, c, None]
                bucket = key ^ flips
                count = c_size[bucket]
                if first is not None:
                    # Lower keys hold only the hashes from before the add,
                    # the own bucket only the entries before the hash.
                    count *= bucket > key
                    if first:
                        count += (bucket < key) * c_below[bucket]
                    count[:, 0] = before[lo : lo + step, c]
                for owner, position in _expand(c_start[bucket], count, self._order):
                    owner += lo
                    xor = queries[owner] ^ corpus[position]
                    close = np.flatnonzero(popcount(xor) <= radius)
                    xor = xor[close]
                    # Keep a pair on the first chunk where it is near.
                    keep = np.ones(close.size, dtype=bool)
                    for shift, mask in masks[:c]:
                        keep &= popcount((xor >> shift) & mask) > per_chunk
                    rows.append(owner[close[keep]])
                    cols.append(position[close[keep]])
        return np.concatenate(rows), np.concatenate(cols)


def _expand(begin: np.ndarray, count: np.ndarray, order: np.ndarray):
    """Yield ``(row, position)`` for the ranges of ``order`` in each row
    of ``begin`` and ``count``, in blocks of about the pair budget."""
    ends = np.cumsum(count.sum(axis=1))
    top = 0
    while top < ends.size:
        spent = int(ends[top - 1]) if top else 0
        cut = max(top + 1, int(np.searchsorted(ends, spent + _PAIR_BUDGET, "right")))
        counts = count[top:cut].reshape(-1)
        hit = np.flatnonzero(counts)
        counts = counts[hit]
        stops = np.cumsum(counts)
        skew = begin[top:cut].reshape(-1)[hit] - stops + counts
        total = int(stops[-1]) if stops.size else 0
        position = order[np.arange(total) + np.repeat(skew, counts)]
        yield np.repeat(hit // count.shape[1] + top, counts), position
        top = cut


def radius_join(
    queries: np.ndarray, corpus: np.ndarray, radius: int
) -> NeighborGraph:
    """Positions in ``corpus`` within Hamming ``radius`` of each query.

    Row ``i`` of the returned :class:`NeighborGraph` is the sorted,
    duplicate-free ``int64`` array of every ``j`` with
    ``hamming(queries[i], corpus[j]) <= radius``: one
    :meth:`RadiusIndex.query`, sorted into rows.
    """
    index = RadiusIndex(radius, corpus)
    queries = np.ascontiguousarray(queries, dtype=np.uint64).reshape(-1)
    row, col = index.query(queries)
    return NeighborGraph.from_pairs(row, col, queries.size, width=len(index))
