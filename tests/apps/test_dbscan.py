"""DBSCAN application tests."""

import numpy as np
import pytest

from repro.apps.dbscan import (
    NOISE,
    cluster_from_neighbors,
    dbscan_pairwise,
    dbscan_reference,
    euclidean_distance,
)
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.workloads import make_blobs


class TestDistance:
    def test_symmetric(self):
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert euclidean_distance(a, b) == euclidean_distance(b, a) == 5.0

    def test_zero_for_identical(self):
        p = np.array([1.5, -2.0])
        assert euclidean_distance(p, p) == 0.0


class TestClusterFromNeighbors:
    def test_two_obvious_clusters(self):
        # 1-2-3 chained, 4-5 chained, 6 isolated.
        neighbors = {1: [2], 2: [1, 3], 3: [2], 4: [5], 5: [4], 6: []}
        result = cluster_from_neighbors(neighbors, min_pts=2)
        assert result.labels[1] == result.labels[2] == result.labels[3]
        assert result.labels[4] == result.labels[5]
        assert result.labels[1] != result.labels[4]
        assert result.labels[6] == NOISE
        assert result.num_clusters == 2

    def test_border_point_not_core(self):
        # 1 and 2 are core (2 neighbours + self >= 3); 3 is border.
        neighbors = {1: [2, 3], 2: [1, 3], 3: [1, 2]}
        result = cluster_from_neighbors(neighbors, min_pts=3)
        assert {1, 2, 3} <= set(result.labels)
        assert 3 in result.core  # 2 neighbours + itself = 3 ≥ min_pts

    def test_min_pts_one_makes_everything_core(self):
        neighbors = {1: [], 2: []}
        result = cluster_from_neighbors(neighbors, min_pts=1)
        assert result.labels[1] != NOISE
        assert result.labels[2] != NOISE
        assert result.num_clusters == 2

    def test_rejects_bad_min_pts(self):
        with pytest.raises(ValueError):
            cluster_from_neighbors({}, 0)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "scheme_factory",
        [
            lambda v: BroadcastScheme(v, 4),
            lambda v: BlockScheme(v, 4),
            lambda v: DesignScheme(v),
        ],
    )
    def test_matches_reference_all_schemes(self, scheme_factory):
        points = make_blobs(30, num_clusters=3, spread=0.3, seed=11)
        ref = dbscan_reference(points, eps=1.5, min_pts=3)
        got = dbscan_pairwise(points, 1.5, 3, scheme_factory(30))
        assert got.labels == ref.labels
        assert got.core == ref.core

    def test_recovers_planted_clusters(self):
        points = make_blobs(60, num_clusters=3, spread=0.2, box=20.0, seed=5)
        result = dbscan_reference(points, eps=1.5, min_pts=4)
        assert result.num_clusters == 3

    def test_noise_points_labelled(self):
        points = make_blobs(
            50, num_clusters=2, spread=0.2, box=20.0, noise_fraction=0.2, seed=9
        )
        result = dbscan_reference(points, eps=1.0, min_pts=4)
        noise = [eid for eid, label in result.labels.items() if label == NOISE]
        assert noise  # background points exist and are flagged

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            dbscan_reference([np.zeros(2)], eps=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan_pairwise([np.zeros(2)] * 4, 0.0, 1, BlockScheme(4, 2))

    def test_members_helper(self):
        points = make_blobs(20, num_clusters=1, spread=0.1, seed=1)
        result = dbscan_reference(points, eps=2.0, min_pts=2)
        assert result.members(0) == sorted(
            eid for eid, label in result.labels.items() if label == 0
        )
