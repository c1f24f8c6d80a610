"""End-to-end integration tests spanning the whole stack."""

import numpy as np
import pytest

from repro.analysis import ground_truth_influence
from repro.communities import COMMUNITIES


class TestGroundTruthGroups:
    def test_group_splits_partition_total(self, world):
        total = ground_truth_influence(world)
        racist = ground_truth_influence(world, group="racist")
        non_racist = ground_truth_influence(world, group="non_racist")
        assert np.allclose(
            racist.expected_events + non_racist.expected_events,
            total.expected_events,
        )
        assert np.array_equal(
            racist.event_counts + non_racist.event_counts, total.event_counts
        )

    def test_invalid_group(self, world):
        with pytest.raises(ValueError):
            ground_truth_influence(world, group="sports")

    def test_planted_racist_pol_boost(self, world):
        """The world plants the paper's Fig. 13 finding: /pol/'s share of
        other communities' racist postings exceeds its non-racist share
        wherever racist memes land in volume."""
        index = {name: k for k, name in enumerate(COMMUNITIES)}
        racist = ground_truth_influence(world, group="racist")
        non_racist = ground_truth_influence(world, group="non_racist")
        tr = racist.percent_of_destination()
        tnr = non_racist.percent_of_destination()
        pol = index["pol"]
        destinations = [
            d
            for d in range(len(COMMUNITIES))
            if d != pol and racist.event_counts[d] >= 10
        ]
        assert destinations, "racist memes reached no other community"
        assert any(tr[pol, d] > tnr[pol, d] for d in destinations)


class TestEndToEndConsistency:
    def test_every_occurrence_is_a_world_post(self, world, pipeline_result):
        def rows(table):
            return set(zip(*(column.tolist() for column in table.to_columns().values())))

        assert rows(pipeline_result.occurrences.posts) <= rows(world.posts)

    def test_cluster_images_exist_in_community(self, world, pipeline_result):
        for community, clustering in pipeline_result.clusterings.items():
            world_hashes = set(
                int(p.phash) for p in world.posts if p.community == community
            )
            assert set(int(h) for h in clustering.unique_hashes) == world_hashes

    def test_jittered_reposts_increase_unique_hashes(self, world):
        """Re-encoded reposts must make unique pHashes comparable to
        image count (Table 1's images ~ 1.2x unique hashes)."""
        stats = {s.community: s for s in world.community_stats()}
        pol = stats["pol"]
        ratio = pol.n_posts_with_images / pol.n_unique_phashes
        assert 1.0 <= ratio < 3.0

    def test_representative_annotations_resolve_in_kym(self, world, pipeline_result):
        for annotation in pipeline_result.annotations.values():
            assert world.kym_site[annotation.representative] is not None

    def test_screenshot_classifier_pipeline_mode(self, world_config):
        """Full pipeline with the CNN-based Step 4 (galleries keep their
        rasters so the classifier can re-flag them)."""
        from dataclasses import replace

        from repro.annotation.kym import SyntheticKYMConfig
        from repro.communities import SyntheticWorld
        from repro.core import PipelineConfig, run_pipeline

        config = replace(
            world_config,
            seed=555,
            events_unit=25.0,
            noise_scale=0.5,
            kym=SyntheticKYMConfig(keep_images=True),
        )
        world = SyntheticWorld.generate(config)
        result = run_pipeline(
            world, PipelineConfig(screenshot_filter="classifier")
        )
        assert result.screenshot_report is not None
        assert result.screenshot_report.auc > 0.85
        assert result.cluster_keys  # annotation still works after re-flagging
