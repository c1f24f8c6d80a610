"""Tests for the pipeline result dataclasses."""

import numpy as np
import pytest

from repro.annotation.matcher import ClusterAnnotation, EntryMatch
from repro.clustering.dbscan import dbscan
from repro.communities.models import Post, PostTable
from repro.core.results import (
    ClusterKey,
    CommunityClustering,
    OccurrenceTable,
    PipelineResult,
)


def make_annotation(cluster_id=0, representative="pepe"):
    return ClusterAnnotation(
        cluster_id=cluster_id,
        medoid_hash=np.uint64(5),
        matches=(
            EntryMatch(
                entry_name=representative,
                n_matches=2,
                gallery_size=4,
                mean_distance=1.0,
            ),
        ),
        representative=representative,
        meme_names=frozenset({representative}),
        people=frozenset(),
        cultures=frozenset(),
        is_racist=False,
        is_politics=False,
    )


def make_post(community="pol"):
    return Post(
        community=community,
        timestamp=1.0,
        phash=np.uint64(5),
        image_id="x",
    )


class TestClusterKey:
    def test_str_form(self):
        assert str(ClusterKey("pol", 12)) == "pol:12"

    def test_tuple_semantics(self):
        assert ClusterKey("pol", 1) == ("pol", 1)


class TestCommunityClustering:
    def test_empty_properties(self):
        clustering = CommunityClustering(
            community="gab",
            unique_hashes=np.empty(0, dtype=np.uint64),
            counts=np.empty(0, dtype=np.int64),
            result=dbscan(np.empty(0, dtype=np.uint64)),
            medoids={},
        )
        assert clustering.n_images == 0
        assert clustering.image_noise_fraction == 0.0

    def test_image_noise_weighted_by_counts(self):
        hashes = np.array([7, 2**40], dtype=np.uint64)
        counts = np.array([6, 1])
        result = dbscan(hashes, eps=0, min_samples=5, counts=counts)
        clustering = CommunityClustering(
            community="pol",
            unique_hashes=hashes,
            counts=counts,
            result=result,
            medoids={0: np.uint64(7)},
        )
        assert clustering.n_images == 7
        assert clustering.image_noise_fraction == pytest.approx(1 / 7)


class TestOccurrenceTable:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            OccurrenceTable(
                posts=PostTable.from_rows([make_post()]),
                cluster_indices=np.array([0, 1]),
                entry_names=["pepe"],
                is_racist=np.array([False]),
                is_politics=np.array([False]),
            )

    def test_column_accessors(self):
        table = OccurrenceTable(
            posts=PostTable.from_rows([make_post("pol"), make_post("gab")]),
            cluster_indices=np.array([0, 0]),
            entry_names=["pepe", "pepe"],
            is_racist=np.array([False, True]),
            is_politics=np.array([True, False]),
        )
        assert len(table) == 2
        assert list(table.posts.community_names()) == ["pol", "gab"]
        assert list(table.posts.timestamp) == [1.0, 1.0]


class TestPipelineResult:
    def test_key_helpers(self):
        keys = [ClusterKey("pol", 0), ClusterKey("pol", 3), ClusterKey("gab", 1)]
        annotations = {
            key: make_annotation(key.cluster_id) for key in keys
        }
        empty_occurrences = OccurrenceTable(
            posts=PostTable.empty(),
            cluster_indices=np.empty(0, dtype=np.int64),
            entry_names=[],
            is_racist=np.empty(0, dtype=bool),
            is_politics=np.empty(0, dtype=bool),
        )
        result = PipelineResult(
            clusterings={},
            annotations=annotations,
            cluster_keys=keys,
            occurrences=empty_occurrences,
        )
        assert result.n_annotated() == 3
        assert result.n_annotated("pol") == 2
        assert result.annotated_clusters_of("gab") == [ClusterKey("gab", 1)]
        assert result.annotations[keys[0]].representative == "pepe"
