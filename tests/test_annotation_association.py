"""Tests for image-to-meme association (Step 6)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.annotation.association import (
    UNASSIGNED,
    associate_hashes,
    reassociate,
)


class TestAssociateHashes:
    def test_exact_and_near_matches(self):
        medoids = {3: 100, 7: 0xFFFFFFFFFFFFFFFF}
        hashes = np.array([100, 101, 0xFFFFFFFFFFFFFFFF, 0x00FFFF0000FFFF00], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=8)
        assert list(result.cluster_ids) == [3, 3, 7, UNASSIGNED]
        assert list(result.distances) == [0, 1, 0, -1]

    def test_nearest_medoid_wins(self):
        medoids = {0: 0b0, 1: 0b1111}
        hashes = np.array([0b1, 0b1110], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=8)
        assert list(result.cluster_ids) == [0, 1]

    def test_tie_breaks_to_smallest_cluster_id(self):
        medoids = {5: 0b01, 2: 0b10}
        hashes = np.array([0b11], dtype=np.uint64)  # distance 1 to both
        result = associate_hashes(hashes, medoids, theta=8)
        assert result.cluster_ids[0] == 2

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.uint64)
        result = associate_hashes(empty, {0: 5})
        assert result.cluster_ids.size == 0
        result = associate_hashes(np.array([5], dtype=np.uint64), {})
        assert list(result.cluster_ids) == [UNASSIGNED]

    def test_negative_theta(self):
        with pytest.raises(ValueError):
            associate_hashes(np.array([1], dtype=np.uint64), {0: 1}, theta=-1)

    def test_duplicates_memoised_consistently(self):
        medoids = {0: 42}
        hashes = np.array([42] * 100 + [43] * 50, dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=0)
        assert np.all(result.cluster_ids[:100] == 0)
        assert np.all(result.cluster_ids[100:] == UNASSIGNED)

    def test_theta_zero_exact_only(self):
        medoids = {0: 8}
        hashes = np.array([8, 9], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=0)
        assert list(result.cluster_ids) == [0, UNASSIGNED]

    def test_multidim_input_flattened(self):
        # numpy >= 2.0 return_inverse hardening: a 2-D hash array must
        # still produce flat, aligned result columns.
        medoids = {0: 42}
        hashes = np.array([[42, 43], [42, 42]], dtype=np.uint64)
        result = associate_hashes(hashes, medoids, theta=0)
        assert result.cluster_ids.shape == (4,)
        assert list(result.cluster_ids) == [0, UNASSIGNED, 0, 0]


# --- incremental re-association --------------------------------------

THETA = 8
_ANCHOR = 0x0123_4567_89AB_CDEF


def _flip(value: int, bits) -> int:
    for bit in bits:
        value ^= 1 << bit
    return value


# Bit sets of a few sizes, mostly 2: two medoids as far from the anchor
# tie for it, and a post moved 8 or 9 bits from a medoid sits on either
# side of θ.
_bits = st.sampled_from([0, 2, 2, THETA, THETA + 1]).flatmap(
    lambda n: st.lists(st.integers(0, 63), unique=True, min_size=n, max_size=n)
)
_near = _bits.map(lambda bits: _flip(_ANCHOR, bits))


@st.composite
def transitions(draw):
    """A run of medoid sets over one growing hash column.

    Medoid hashes come from a small pool near one anchor, so ids often
    share a hash (two communities with one medoid) and often tie; from
    one set to the next, winners are removed, kept under a new id, or
    joined by an added medoid; a post is a pool hash moved by 0, 2, θ or
    θ + 1 bits, the anchor, or a random hash that matches nothing.
    """
    pool = draw(st.lists(_near, min_size=2, max_size=5))
    ids = st.integers(0, 12)
    medoid_sets = [draw(st.dictionaries(ids, st.sampled_from(pool), max_size=5))]
    for _ in range(draw(st.integers(1, 3))):
        # Each medoid stays (under an id drawn anew) or leaves, and a
        # few pool hashes join.
        kept = {
            draw(ids): medoid
            for medoid in medoid_sets[-1].values()
            if draw(st.booleans())
        }
        joined = draw(st.dictionaries(ids, st.sampled_from(pool), max_size=3))
        medoid_sets.append({**kept, **joined})
    post = st.one_of(
        st.sampled_from(pool),
        st.tuples(st.sampled_from(pool), _bits).map(lambda pair: _flip(*pair)),
        st.just(_ANCHOR),
        st.integers(0, 2**64 - 1),
    )
    hashes = draw(st.lists(post, min_size=1, max_size=30))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, len(hashes)),
                min_size=len(medoid_sets) - 1,
                max_size=len(medoid_sets) - 1,
            )
        )
    )
    return np.array(hashes, dtype=np.uint64), medoid_sets, cuts + [len(hashes)]


def _same(got, want):
    assert got.cluster_ids.tolist() == want.cluster_ids.tolist()
    assert got.distances.tolist() == want.distances.tolist()
    assert got.tied.tolist() == want.tied.tolist()


def _chain(hashes, medoid_sets, cuts):
    """Re-associate through every transition, checking each step against
    a fresh association of the same prefix."""
    previous = associate_hashes(
        hashes[: cuts[0]], medoid_sets[0], theta=THETA, return_ties=True
    )
    for before, after, end in zip(medoid_sets, medoid_sets[1:], cuts[1:]):
        got = reassociate(hashes[:end], previous, before, after, theta=THETA)
        _same(
            got,
            associate_hashes(hashes[:end], after, theta=THETA, return_ties=True),
        )
        previous = got


# One example per case the strategy aims at.
_AT_THETA = _flip(_ANCHOR, range(THETA))
_PAST_THETA = _flip(_ANCHOR, range(THETA + 1))
_EQUAL_A, _EQUAL_B = _flip(_ANCHOR, [0, 1]), _flip(_ANCHOR, [2, 3])
REASSOCIATION_CASES = {
    # The anchor is 2 from A and from B.  An added medoid at the kept
    # winner's distance wins with a smaller id and loses with a larger
    # one; either way the anchor is tied now.
    "equal-distance-ties-added-smaller-id": (
        [_ANCHOR, _EQUAL_A],
        [{5: _EQUAL_A}, {5: _EQUAL_A, 1: _EQUAL_B}],
        [2, 2],
    ),
    "equal-distance-ties-added-larger-id": (
        [_ANCHOR, _EQUAL_A],
        [{5: _EQUAL_A}, {5: _EQUAL_A, 8: _EQUAL_B}],
        [2, 2],
    ),
    # A tie carried into a set where both medoids stay under swapped ids
    # must send the anchor to the full comparison.
    "equal-distance-ties-carried": (
        [_ANCHOR, _EQUAL_B],
        [{5: _EQUAL_A, 7: _EQUAL_B}, {7: _EQUAL_A, 2: _EQUAL_B}],
        [2, 2],
    ),
    # Two communities promote one medoid hash; then one of them drops it.
    "one-medoid-hash-in-two-communities": (
        [_ANCHOR, _flip(_ANCHOR, [5]), _EQUAL_A],
        [{1: _ANCHOR}, {1: _ANCHOR, 4: _ANCHOR}, {4: _ANCHOR, 6: _EQUAL_A}],
        [1, 2, 3],
    ),
    # A post exactly θ from a kept medoid, another θ + 1 from it, and an
    # added medoid at θ from the second.
    "distance-theta-and-theta-plus-one": (
        [_AT_THETA, _PAST_THETA],
        [{0: _ANCHOR}, {0: _ANCHOR, 1: _flip(_PAST_THETA, range(50, 58))}],
        [2, 2],
    ),
    # The winner of the first post leaves; the second matched nothing.
    "removed-winner-beside-unmatched-post": (
        [_EQUAL_A, 0xFFFF_FFFF_0000_0000],
        [{3: _EQUAL_A, 8: _flip(_EQUAL_A, [40, 41, 42])}, {8: _flip(_EQUAL_A, [40, 41, 42])}],
        [2, 2],
    ),
}


class TestReassociate:
    @pytest.mark.parametrize("case", sorted(REASSOCIATION_CASES))
    def test_boundary_cases_equal_a_fresh_association(self, case):
        hashes, medoid_sets, cuts = REASSOCIATION_CASES[case]
        _chain(np.array(hashes, dtype=np.uint64), medoid_sets, cuts)

    @settings(max_examples=300, deadline=None)
    @given(transitions())
    @example(
        (
            np.array([_ANCHOR, _AT_THETA, _PAST_THETA], dtype=np.uint64),
            [{0: _ANCHOR, 1: _ANCHOR}, {1: _ANCHOR}, {}],
            [1, 3, 3],
        )
    )
    def test_transitions_equal_a_fresh_association(self, transition):
        _chain(*transition)

    def test_previous_longer_than_hashes_rejected(self):
        previous = associate_hashes(
            np.array([1, 2], dtype=np.uint64), {0: 1}, return_ties=True
        )
        with pytest.raises(ValueError, match="longer"):
            reassociate(np.array([1], dtype=np.uint64), previous, {0: 1}, {0: 1})
