"""Differential suite: every radius-neighbour path against one dense reference.

The reference is a pure-Python popcount scan over every pair.  The
inputs are adversarial for multi-index hashing: pairs at exactly the
radius and one past it whose flipped bits straddle a chunk boundary of
every chunk layout the join can choose, the hashes 0 and 2**64 - 1,
heavy duplicates, empty and singleton sets, and a dense ball where
every hash is within the radius of every other.  The join's plan is
steered through its cost constants, so each radius runs the dense scan,
the probe plan with the fewest probes and the one with the fewest
candidates, with the pair budget at its default and at one pair (every
query its own block).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import index
from repro.hashing.index import (
    NeighborGraph,
    RadiusIndex,
    _chunk_layout,
    _dense_pairs,
    radius_join,
)
from repro.hashing.pairwise import merge_radius_neighbors, radius_neighbors
from tests.clustering_reference import adjacency

RADII = [*range(13), 63, 64]
ALL_ONES = (1 << 64) - 1


def reference_rows(queries, corpus, radius):
    corpus_ints = [int(value) for value in corpus]
    return [
        np.array(
            [
                j
                for j, value in enumerate(corpus_ints)
                if bin(int(query) ^ value).count("1") <= radius
            ],
            dtype=np.int64,
        )
        for query in queries
    ]


def chunk_cuts():
    """Bit positions where some chunk layout of the join starts a chunk."""
    return sorted(
        {
            shift
            for n_chunks in range(index._MIN_CHUNKS, index._MAX_CHUNKS + 1)
            for shift, _ in _chunk_layout(n_chunks)[1:]
        }
    )


def boundary_hashes(radius, seed=0):
    """Bases with partners at exactly ``radius`` and ``radius + 1`` bits.

    Each partner's flipped bits are one contiguous window across a
    chunk cut: centred on it, and with a single bit past it.
    """
    rng = np.random.default_rng(seed + radius)
    out = []
    for cut in chunk_cuts():
        base = int(rng.integers(0, 2**64, dtype=np.uint64))
        out.append(base)
        for distance in (radius, radius + 1):
            if not 0 < distance <= 64:
                continue
            for low in (cut - distance // 2, cut - distance + 1):
                low = max(0, min(64 - distance, low))
                out.append(base ^ (((1 << distance) - 1) << low))
    return np.array(out, dtype=np.uint64)


def extreme_hashes():
    values = [
        0,
        ALL_ONES,
        1,
        1 << 63,
        ALL_ONES ^ 1,
        ALL_ONES ^ (1 << 63),
        0x5555555555555555,
        0xAAAAAAAAAAAAAAAA,
        0x00000000FFFFFFFF,
        0xFFFFFFFF00000000,
    ]
    return np.array(values, dtype=np.uint64)


def dense_ball(radius, size=40, seed=1):
    """Hashes within ``radius // 2`` bits of one base, so every pair is
    within ``radius``."""
    rng = np.random.default_rng(seed + radius)
    base = int(rng.integers(0, 2**64, dtype=np.uint64))
    out = []
    for _ in range(size):
        flips = int(rng.integers(0, radius // 2 + 1))
        bits = rng.choice(64, size=flips, replace=False)
        out.append(base ^ sum(1 << int(bit) for bit in bits))
    return np.array(out, dtype=np.uint64)


def cases(radius):
    boundary = boundary_hashes(radius)
    extremes = extreme_hashes()
    duplicated = np.concatenate([boundary[:12], boundary[:12], extremes[:3]])
    return {
        "boundary": boundary,
        "extremes": extremes,
        "duplicates": duplicated,
        "empty": np.empty(0, dtype=np.uint64),
        "singleton": np.array([ALL_ONES], dtype=np.uint64),
        "dense-ball": dense_ball(radius),
        "mixed": np.concatenate([boundary, extremes, duplicated]),
    }


# Cost-constant overrides that force each plan family.
MODES = {
    "auto": {},
    "dense": {"_NS_PLAN": float("inf")},
    "fewest-probes": {"_NS_DENSE": float("inf"), "_NS_CANDIDATE": 0.0},
    "fewest-candidates": {
        "_NS_DENSE": float("inf"),
        "_NS_PROBE": 0.0,
        "_NS_BUCKET": 0.0,
    },
    "dense-budget-1": {"_NS_PLAN": float("inf"), "_PAIR_BUDGET": 1},
    "probes-budget-1": {"_NS_DENSE": float("inf"), "_PAIR_BUDGET": 1},
}


@pytest.fixture(params=sorted(MODES))
def mode(request, monkeypatch):
    for name, value in MODES[request.param].items():
        monkeypatch.setattr(index, name, value)
    return request.param


def index_graph(radius, hashes):
    """The graph of one ``add`` of ``hashes`` to an empty index."""
    return NeighborGraph.from_join(*RadiusIndex(radius).add(hashes), hashes.size)


def assert_rows_equal(got, expected, label):
    assert len(got) == len(expected), label
    for i, (row, ref) in enumerate(zip(got, expected)):
        assert row.dtype == np.int64, f"{label}: row {i} dtype {row.dtype}"
        assert np.array_equal(row, ref), f"{label}: row {i} {row} != {ref}"


@pytest.mark.parametrize("radius", RADII)
def test_self_join_matches_reference(radius, mode):
    for name, hashes in cases(radius).items():
        expected = reference_rows(hashes, hashes, radius)
        assert_rows_equal(
            radius_join(hashes, hashes, radius), expected, f"{name} join"
        )
        assert_rows_equal(
            radius_neighbors(hashes, radius), expected, f"{name} neighbors"
        )
        assert_rows_equal(
            index_graph(radius, hashes), expected, f"{name} index"
        )


def shared_key_hashes(radius, size=80, seed=2):
    """Hashes equal on their low 16 bits, so every chunk layout puts all
    of them in one bucket of its first chunk, with partners within the
    radius above it."""
    rng = np.random.default_rng(seed + radius)
    low = int(rng.integers(0, 1 << 16))
    bases = rng.integers(0, 2**48, size=size // 4, dtype=np.uint64)
    out = []
    for base in bases.tolist():
        for _ in range(4):
            count = int(rng.integers(0, min(radius + 2, 48)))
            flips = rng.choice(48, size=count, replace=False)
            value = base ^ sum(1 << int(bit) for bit in flips)
            out.append((value << 16) | low)
    return np.array(out, dtype=np.uint64)


def many_chunk_hashes(radius, seed=3):
    """Partners whose flipped bits sit in one window of at most the
    radius, so the pair is exact on most chunks at once, and on the
    chunks the window straddles may or may not be near."""
    rng = np.random.default_rng(seed + radius)
    out = []
    for _ in range(12):
        base = int(rng.integers(0, 2**64, dtype=np.uint64))
        out.extend([base, base])
        for width in {0, 1, radius // 2, radius, radius + 1}:
            width = min(width, 64)
            low = int(rng.integers(0, 64 - width + 1))
            out.append(base ^ (((1 << width) - 1) << low))
    return np.array(out, dtype=np.uint64)


def top_bit_hashes(seed=4):
    """For every chunk of every layout, a base with the chunk's top bit
    clear and partners whose chunk key differs in that bit alone, or in
    it and the bit below: the flip's top bit is clear in the base's key
    and set in the partners'."""
    rng = np.random.default_rng(seed)
    out = []
    for top in sorted({cut - 1 for cut in chunk_cuts()} | {63}):
        base = int(rng.integers(0, 2**64, dtype=np.uint64)) & ~(1 << top)
        out.extend([base, base | (1 << top), base | (3 << (top - 1))])
    return np.array(out, dtype=np.uint64)


@pytest.mark.parametrize("radius", range(13))
@pytest.mark.parametrize("name", ["shared-key", "many-chunks", "top-bit"])
def test_index_rules_match_reference(radius, name, mode):
    hashes = {
        "shared-key": shared_key_hashes,
        "many-chunks": many_chunk_hashes,
        "top-bit": lambda radius: top_bit_hashes(),
    }[name](radius)
    expected = reference_rows(hashes, hashes, radius)
    assert_rows_equal(index_graph(radius, hashes), expected, name)


@pytest.mark.parametrize("radius", [0, 2, 8, 12, 64])
@pytest.mark.parametrize("batches", [1, 2, 7])
def test_index_grown_in_batches_is_cold_graph(radius, batches, mode):
    rng = np.random.default_rng(radius * 10 + batches)
    hashes = rng.permutation(
        np.concatenate([cases(radius)["mixed"], many_chunk_hashes(radius)])
    )
    cuts = np.sort(rng.choice(np.arange(1, hashes.size), batches - 1, replace=False))
    # One index takes every batch: it plans, splices and re-plans.
    index = RadiusIndex(radius)
    parts = [index.add(batch) for batch in np.split(hashes, cuts)]
    a, b = (np.concatenate(side) for side in zip(*parts))
    expected = reference_rows(hashes, hashes, radius)
    assert_rows_equal(NeighborGraph.from_join(a, b, hashes.size), expected, "index")
    # The merge grows the graph over the unique hashes batch by batch.
    unique = np.unique(hashes)
    prev, graph = unique[:0], NeighborGraph.from_rows([])
    for batch in np.split(hashes, cuts):
        grown = np.union1d(prev, batch)
        graph = merge_radius_neighbors(prev, graph, grown, radius)
        prev = grown
    assert_rows_equal(graph, reference_rows(unique, unique, radius), "merged")


@pytest.mark.parametrize("radius", RADII)
def test_cross_join_matches_rectangular_scan(radius, mode):
    named = cases(radius)
    pairs = [
        (named["boundary"][::2], named["mixed"]),
        (named["extremes"], named["dense-ball"]),
        (named["duplicates"], named["boundary"][1::2]),
        (named["empty"], named["mixed"]),
        (named["mixed"], named["empty"]),
        (named["singleton"], named["extremes"]),
    ]
    for queries, corpus in pairs:
        label = f"{queries.size}x{corpus.size}"
        assert_rows_equal(
            radius_join(queries, corpus, radius),
            reference_rows(queries, corpus, radius),
            label,
        )


@pytest.mark.parametrize("radius", RADII)
def test_radius_neighbors_methods_match_reference(radius):
    hashes = cases(radius)["mixed"]
    expected = [np.flatnonzero(row) for row in adjacency(hashes, radius)]
    graphs = {
        "dense": NeighborGraph.from_pairs(
            *_dense_pairs(hashes, hashes, radius), hashes.size
        ),
        "join": index_graph(radius, hashes),
        "radius_neighbors": radius_neighbors(hashes, radius),
    }
    for label, graph in graphs.items():
        assert_rows_equal(graph, expected, label)


@pytest.mark.parametrize("radius", RADII)
def test_patch_and_merge_match_cold(radius, mode):
    hashes = cases(radius)["mixed"]
    unique = np.unique(hashes)
    expected = reference_rows(unique, unique, radius)
    # A prefix of the posts and every third post: the grown set
    # interleaves new hashes with old ones either way.
    for label, prev in (("prefix", hashes[:70]), ("strided", hashes[::3])):
        prev_unique = np.unique(prev)
        merged = merge_radius_neighbors(
            prev_unique,
            reference_rows(prev_unique, prev_unique, radius),
            unique,
            radius,
        )
        assert_rows_equal(merged, expected, label)


def test_untouched_rows_are_not_rebuilt():
    # The merge joins only the added hashes: the pairs among old hashes
    # come from the stored graph and are never recomputed, so a stored
    # graph forged without the old pair (0, 1) keeps it out.
    prev = np.array([0, 1], dtype=np.uint64)
    forged = [np.array([0]), np.array([1])]
    unique = np.array([0, 1, 3, ALL_ONES], dtype=np.uint64)
    merged = merge_radius_neighbors(prev, forged, unique, 2)
    assert [row.tolist() for row in merged] == [[0, 2], [1, 2], [0, 1, 2], [3]]


def test_radius_past_64_joins_every_pair():
    hashes = cases(0)["mixed"]
    every = np.arange(hashes.size, dtype=np.int64)
    for row in radius_join(hashes, hashes, 10**9):
        assert np.array_equal(row, every)


def test_negative_radius_rejected():
    hashes = np.array([1], dtype=np.uint64)
    with pytest.raises(ValueError, match="non-negative"):
        radius_join(hashes, hashes, -1)
    with pytest.raises(ValueError, match="non-negative"):
        merge_radius_neighbors(hashes, [np.array([0])], hashes, -1)
    with pytest.raises(ValueError, match="non-negative"):
        merge_radius_neighbors(hashes[:0], [], hashes, -1)
