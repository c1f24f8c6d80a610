"""Tests for agglomerative clustering, cross-checked against scipy."""

import numpy as np
import pytest
from scipy.cluster import hierarchy as scipy_hierarchy
from scipy.spatial.distance import squareform

from repro.clustering.hierarchy import agglomerate, cut_dendrogram


def random_distance_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.random((n, 3))
    diffs = points[:, None, :] - points[None, :, :]
    return np.sqrt((diffs**2).sum(axis=2))


class TestAgglomerate:
    def test_validation(self):
        with pytest.raises(ValueError):
            agglomerate(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            agglomerate(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            agglomerate(np.zeros((2, 2)), linkage="ward")
        with pytest.raises(ValueError):
            agglomerate(np.zeros((2, 2)), labels=["a"])

    def test_single_leaf(self):
        d = agglomerate(np.zeros((1, 1)), labels=["only"])
        assert d.n_leaves == 1 and d.merges == ()
        assert d.to_newick() == "only;"

    def test_two_leaves(self):
        matrix = np.array([[0.0, 0.7], [0.7, 0.0]])
        d = agglomerate(matrix, labels=["a", "b"])
        assert len(d.merges) == 1
        assert d.merges[0].height == pytest.approx(0.7)
        assert d.merges[0].size == 2

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_matches_scipy(self, linkage):
        matrix = random_distance_matrix(12, seed=3)
        merges = agglomerate(matrix, linkage=linkage).merges
        ours = np.array([[m.left, m.right, m.height, m.size] for m in merges])
        theirs = scipy_hierarchy.linkage(squareform(matrix), method=linkage)
        # Merge heights must agree (node numbering can differ on ties,
        # but with generic random distances ties do not occur).
        assert np.allclose(ours[:, 2], theirs[:, 2], atol=1e-9)
        assert np.allclose(ours[:, 3], theirs[:, 3])

    def test_heights_monotone_for_average_linkage(self):
        matrix = random_distance_matrix(15, seed=5)
        d = agglomerate(matrix, linkage="average")
        heights = [m.height for m in d.merges]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_leaves_under_root_is_everything(self):
        matrix = random_distance_matrix(8, seed=7)
        d = agglomerate(matrix)
        leaves = {i: [i] for i in range(d.n_leaves)}
        for node, step in enumerate(d.merges, start=d.n_leaves):
            leaves[node] = leaves[step.left] + leaves[step.right]
        assert sorted(leaves[node]) == list(range(8))

    def test_newick_contains_all_labels(self):
        matrix = random_distance_matrix(5, seed=9)
        labels = ["a", "b", "c", "d", "e"]
        newick = agglomerate(matrix, labels=labels).to_newick()
        for label in labels:
            assert label in newick
        assert newick.endswith(";")

    def test_ascii_render(self):
        matrix = random_distance_matrix(4, seed=11)
        text = agglomerate(matrix).to_ascii()
        assert len(text.splitlines()) == 3  # n-1 merges


class TestCutDendrogram:
    def test_cut_at_zero_is_singletons(self):
        matrix = random_distance_matrix(6, seed=13)
        d = agglomerate(matrix)
        labels = cut_dendrogram(d, -1.0)
        assert len(set(labels.tolist())) == 6

    def test_cut_above_root_is_one_cluster(self):
        matrix = random_distance_matrix(6, seed=13)
        d = agglomerate(matrix)
        labels = cut_dendrogram(d, 1e9)
        assert len(set(labels.tolist())) == 1

    def test_cut_matches_scipy_fcluster(self):
        matrix = random_distance_matrix(10, seed=15)
        d = agglomerate(matrix, linkage="average")
        height = float(np.median([m.height for m in d.merges]))
        ours = cut_dendrogram(d, height)
        theirs = scipy_hierarchy.fcluster(
            scipy_hierarchy.linkage(squareform(matrix), method="average"),
            t=height,
            criterion="distance",
        )
        # Same partitions up to relabelling.
        mapping = {}
        for a, b in zip(ours.tolist(), theirs.tolist()):
            mapping.setdefault(a, b)
            assert mapping[a] == b
        assert len(set(mapping.values())) == len(mapping)

    def test_two_well_separated_groups(self):
        matrix = np.array(
            [
                [0.0, 0.1, 0.9, 0.9],
                [0.1, 0.0, 0.9, 0.9],
                [0.9, 0.9, 0.0, 0.1],
                [0.9, 0.9, 0.1, 0.0],
            ]
        )
        d = agglomerate(matrix)
        labels = cut_dendrogram(d, 0.45)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
