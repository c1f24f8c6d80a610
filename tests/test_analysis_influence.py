"""Tests for influence estimation over pipeline results (Figs. 11-16)."""

import numpy as np
import pytest

from repro.analysis.influence import (
    cluster_event_sequences,
    ground_truth_influence,
    influence_study,
    ks_significance_matrix,
)
from repro.communities.models import COMMUNITIES

POL = COMMUNITIES.index("pol")
TD = COMMUNITIES.index("the_donald")


@pytest.fixture(scope="session")
def study(world, pipeline_result):
    return influence_study(
        pipeline_result, world.config.horizon_days, min_events=8
    )


class TestClusterSequences:
    def test_sequences_respect_min_events(self, world, pipeline_result):
        sequences = cluster_event_sequences(
            pipeline_result, world.config.horizon_days, min_events=8
        )
        assert sequences
        for sequence in sequences.values():
            assert len(sequence) >= 8
            assert sequence.horizon == world.config.horizon_days

    def test_keys_are_annotated_clusters(self, world, pipeline_result):
        sequences = cluster_event_sequences(
            pipeline_result, world.config.horizon_days
        )
        assert set(sequences) <= set(pipeline_result.cluster_keys)


class TestInfluenceStudy:
    def test_event_conservation(self, study):
        # Every event's root mass lands somewhere.
        assert np.allclose(
            study.total.expected_events.sum(axis=0), study.total.event_counts
        )

    def test_groups_partition_total(self, study):
        racist = study.group("racist")
        non_racist = study.group("non_racist")
        assert np.allclose(
            racist.expected_events + non_racist.expected_events,
            study.total.expected_events,
        )
        assert np.array_equal(
            racist.event_counts + non_racist.event_counts,
            study.total.event_counts,
        )

    def test_table7_event_ordering(self, study):
        counts = dict(zip(COMMUNITIES, study.event_counts()))
        assert counts["pol"] > counts["reddit"]
        assert counts["pol"] > counts["gab"]

    def test_diagonal_dominates(self, study):
        pct = study.total.percent_of_destination()
        for destination in range(len(COMMUNITIES)):
            if study.total.event_counts[destination] == 0:
                continue
            assert pct[destination, destination] == max(pct[:, destination])

    def test_matches_ground_truth_shape(self, world, study):
        """The estimator must recover the planted influence structure:
        percent-of-destination cells within a mean absolute error of one
        point of truth, and every cell within three points."""
        truth = ground_truth_influence(world)
        est = study.total.percent_of_destination()
        act = truth.percent_of_destination()
        # Only compare communities with enough events in both views.
        large = (truth.event_counts >= 100) & (study.total.event_counts >= 100)
        assert large.any()
        errors = np.abs(est[:, large] - act[:, large])
        assert errors.mean() <= 1.0
        assert errors.max() <= 3.0

    def test_pol_least_efficient_of_big_communities(self, world, study):
        """Fig. 12's headline: /pol/'s per-event external influence is the
        smallest among the high-volume communities."""
        normalized = study.total.total_external_normalized()
        pol = normalized[POL]
        for community in ("reddit", "twitter"):
            assert pol <= normalized[COMMUNITIES.index(community)] + 1.0

    def test_the_donald_efficient(self, study):
        """The_Donald pushes memes out at a high per-event rate."""
        normalized = study.total.total_external_normalized()
        assert normalized[TD] > normalized[POL]


class TestGroundTruth:
    def test_counts_match_meme_posts(self, world):
        truth = ground_truth_influence(world)
        n_meme_posts = sum(1 for post in world.posts if post.is_meme)
        assert int(truth.event_counts.sum()) == n_meme_posts

    def test_percent_columns_sum_to_100(self, world):
        truth = ground_truth_influence(world)
        pct = truth.percent_of_destination()
        for destination in range(5):
            if truth.event_counts[destination]:
                assert pct[:, destination].sum() == pytest.approx(100.0)


class TestKSMatrix:
    def test_shape_and_range(self, study, pipeline_result):
        p_values = ks_significance_matrix(study, pipeline_result, "politics")
        assert p_values.shape == (5, 5)
        finite = p_values[np.isfinite(p_values)]
        assert np.all((finite >= 0) & (finite <= 1))

    def test_invalid_group(self, study, pipeline_result):
        with pytest.raises(ValueError):
            ks_significance_matrix(study, pipeline_result, "sports")


class TestFitFailureIsolation:
    def test_no_failures_on_healthy_world(self, study):
        assert study.failures == {}

    def test_one_bad_cluster_is_isolated(self, world, pipeline_result, monkeypatch):
        """A single pathological Hawkes fit must be reported, not sink
        the whole study."""
        import repro.analysis.influence as influence_module

        real_fit = influence_module.fit_hawkes_em
        calls = {"n": 0}

        def flaky_fit(sequences, k, fit_config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise np.linalg.LinAlgError("singular EM update")
            return real_fit(sequences, k, fit_config)

        monkeypatch.setattr(influence_module, "fit_hawkes_em", flaky_fit)
        study = influence_study(
            pipeline_result, world.config.horizon_days, min_events=8
        )
        assert len(study.failures) == 1
        failed_key, message = next(iter(study.failures.items()))
        assert "LinAlgError" in message
        assert failed_key not in study.per_cluster
        assert np.all(np.isfinite(study.total.expected_events))
        assert len(study.per_cluster) >= 1
