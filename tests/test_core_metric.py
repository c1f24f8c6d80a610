"""Tests for the custom distance metric (Eq. 1-2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import MetricWeights
from repro.core.metric import (
    ClusterFeatures,
    cluster_distance,
    jaccard,
    pairwise_cluster_distances,
    perceptual_similarity,
)
from tests.metric_reference import perceptual_similarity_literal


class TestPerceptualSimilarity:
    def test_paper_quoted_values(self):
        # Section 2.3: tau=1, d=1 -> ~0.4; tau=64, d=1 -> ~0.98.
        assert perceptual_similarity(1, tau=1.0) == pytest.approx(0.4, abs=0.04)
        assert perceptual_similarity(1, tau=64.0) == pytest.approx(0.98, abs=0.01)
        assert perceptual_similarity(0, tau=1.0) == 1.0

    def test_operating_point_tau_25(self):
        # High up to d=8, rapid decay after (the paper's rationale).
        assert perceptual_similarity(8, tau=25.0) > 0.7
        assert perceptual_similarity(32, tau=25.0) < 0.3

    def test_monotone_decreasing(self):
        values = perceptual_similarity(np.arange(65), tau=25.0)
        assert np.all(np.diff(values) < 0)

    def test_near_linear_at_tau_64(self):
        values = perceptual_similarity(np.arange(65), tau=64.0)
        diffs = np.diff(values)
        assert diffs.std() / abs(diffs.mean()) < 0.3  # nearly constant slope

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            perceptual_similarity(-1)
        with pytest.raises(ValueError):
            perceptual_similarity(65)
        with pytest.raises(ValueError):
            perceptual_similarity(1, tau=0)

    def test_literal_variant_disagrees_with_quoted_values(self):
        # Documents the Eq. 2 typo: the printed formula cannot produce
        # the paper's own numbers.
        assert perceptual_similarity_literal(1, tau=1.0) > 0.9  # not 0.4


class TestJaccard:
    def test_basic(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard({"a"}, {"a"}) == 1.0

    def test_empty_sets_contribute_nothing(self):
        assert jaccard(set(), set()) == 0.0
        assert jaccard({"a"}, set()) == 0.0

    @given(
        st.sets(st.integers(0, 20)),
        st.sets(st.integers(0, 20)),
    )
    def test_bounds_and_symmetry(self, a, b):
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(b, a)


def features(h, memes=(), people=(), cultures=(), annotated=True):
    return ClusterFeatures(
        medoid_hash=np.uint64(h),
        meme_names=frozenset(memes),
        people=frozenset(people),
        cultures=frozenset(cultures),
        annotated=annotated,
    )


class TestClusterDistance:
    def test_full_agreement_distance_zero(self):
        a = features(0, memes=("pepe",), people=("trump",), cultures=("4chan",))
        b = features(0, memes=("pepe",), people=("trump",), cultures=("4chan",))
        assert cluster_distance(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_paper_bound_no_people_culture(self):
        # Same meme + perceptually identical, no people/culture overlap:
        # distance at most 0.2 (Section 2.3).
        a = features(0, memes=("pepe",))
        b = features(0, memes=("pepe",))
        assert cluster_distance(a, b) == pytest.approx(0.2, abs=1e-9)

    def test_partial_mode_perceptual_only(self):
        a = features(0, memes=("pepe",), annotated=False)
        b = features(0, memes=("other",))
        # Identical medoids -> similarity 1 in partial mode.
        assert cluster_distance(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_partial_mode_far_hashes(self):
        a = features(0, annotated=False)
        b = features(0xFFFFFFFFFFFFFFFF, annotated=False)
        assert cluster_distance(a, b) > 0.9

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = features(int(rng.integers(0, 2**63)), memes=("x",))
            b = features(int(rng.integers(0, 2**63)), memes=("y",))
            assert 0.0 <= cluster_distance(a, b) <= 1.0

    def test_symmetry(self):
        a = features(12345, memes=("pepe",), people=("trump",))
        b = features(54321, memes=("pepe", "smug"), cultures=("4chan",))
        assert cluster_distance(a, b) == cluster_distance(b, a)

    def test_same_image_different_memes_still_close(self):
        # The paper: clusters reusing the same image for different memes
        # also get small distances (perceptual weight 0.4).
        a = features(7, memes=("pepe",))
        b = features(7, memes=("merchant",))
        assert cluster_distance(a, b) == pytest.approx(0.6, abs=1e-9)

    def test_custom_weights(self):
        weights = MetricWeights(perceptual=1.0, meme=0.0, people=0.0, culture=0.0)
        a = features(0, memes=("x",))
        b = features(0, memes=("y",))
        assert cluster_distance(a, b, weights=weights) == pytest.approx(0.0)


class TestMetricWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MetricWeights(perceptual=0.5, meme=0.5, people=0.5, culture=0.5)

    def test_partial_mode_preset(self):
        partial = MetricWeights.partial_mode()
        assert partial.perceptual == 1.0 and partial.meme == 0.0


class TestPairwiseMatrix:
    def test_shape_and_diagonal(self):
        items = [features(i, memes=(str(i),)) for i in range(5)]
        matrix = pairwise_cluster_distances(items)
        assert matrix.shape == (5, 5)
        assert np.all(np.diag(matrix) == 0)
        assert np.array_equal(matrix, matrix.T)
