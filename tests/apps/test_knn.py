"""kNN-graph application tests."""

import pytest

from repro.apps.dbscan import euclidean_distance
from repro.apps.knn import (
    KnnGraph,
    average_neighbor_distance,
    degree_histogram,
    knn_graph,
    knn_reference,
    recall_at_k,
)
from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.pairwise import PairwiseComputation
from repro.workloads import make_blobs


@pytest.fixture
def points():
    return make_blobs(30, num_clusters=3, spread=0.4, seed=17)


class TestConstruction:
    def test_matches_reference(self, points):
        ref = knn_reference(points, k=4)
        got = knn_graph(points, 4, BlockScheme(30, 4))
        assert got.neighbors == ref.neighbors
        assert recall_at_k(got, ref) == 1.0

    def test_prime_power_design_scheme(self):
        points = make_blobs(70, num_clusters=3, spread=0.4, seed=17)  # truncated GF(8) plane
        ref = knn_reference(points, k=3)
        got = knn_graph(points, 3, DesignScheme(70, allow_prime_powers=True))
        assert got.neighbors == ref.neighbors

    def test_tied_distances_match_reference(self):
        # Symmetric 1-D points produce exact distance ties; the top-k
        # selection must break them like the reference's full sort
        # (ascending partner id).
        import numpy as np

        tied = [np.array([float(x)]) for x in (0, 1, -1, 2, -2, 3, -3, 4)]
        ref = knn_reference(tied, k=3)
        got = knn_graph(tied, 3, BlockScheme(len(tied), 2))
        assert got.neighbors == ref.neighbors

    @pytest.mark.parametrize("kernel", [None, "dense-euclidean"])
    def test_a_nan_distance_ranks_last_on_every_path(self, points, kernel):
        import numpy as np

        points = [np.array(point, dtype=float) for point in points]
        points[4][0] = np.nan  # element 5: every distance to it is NaN
        scheme = BlockScheme(30, 4)
        reference = PairwiseComputation(scheme, euclidean_distance, top_k=3).run_local(points)
        local = KnnGraph(3, {eid: tuple(e.results.items()) for eid, e in reference.items()})
        piped = knn_graph(points, 3, scheme, kernel=kernel)  # the dense kernel: a float64 fold
        assert [list(dict(p)) for p in piped.neighbors.values()] == [
            list(dict(p)) for p in local.neighbors.values()
        ]
        distances = [[d for _, d in p] for g in (piped, local) for p in g.neighbors.values()]
        np.testing.assert_allclose(distances[:30], distances[30:], rtol=1e-12)  # NaN == NaN
        if kernel is None:
            assert repr(piped.neighbors) == repr(local.neighbors)
        assert [partner for partner, _ in local.neighbors[5]] == [1, 2, 3]
        assert all(5 not in dict(partners) for partners in local.neighbors.values())

    def test_every_node_has_k_neighbors(self, points):
        graph = knn_reference(points, k=5)
        assert all(len(partners) == 5 for partners in graph.neighbors.values())

    def test_neighbors_ascending_distance(self, points):
        graph = knn_reference(points, k=6)
        for partners in graph.neighbors.values():
            distances = [d for _eid, d in partners]
            assert distances == sorted(distances)

    def test_validation(self, points):
        with pytest.raises(ValueError):
            knn_graph(points, 0, BlockScheme(30, 3))
        with pytest.raises(ValueError):
            knn_graph(points, 30, BlockScheme(30, 3))
        with pytest.raises(ValueError):
            knn_reference(points, 0)


class TestGraphOps:
    def test_edge_set_size(self, points):
        graph = knn_reference(points, k=3)
        assert len(graph.edge_set()) == 30 * 3

    def test_mutual_edges_subset(self, points):
        graph = knn_reference(points, k=4)
        mutual = graph.mutual_edges()
        directed = graph.edge_set()
        for i, j in mutual:
            assert (i, j) in directed and (j, i) in directed
            assert i > j

    def test_clustered_points_mostly_mutual(self, points):
        """Tight blobs: most nearest-neighbour relations are reciprocal."""
        graph = knn_reference(points, k=4)
        assert len(graph.mutual_edges()) > 30 * 4 / 2 * 0.5

    def test_recall_requires_same_k(self, points):
        with pytest.raises(ValueError):
            recall_at_k(knn_reference(points, 2), knn_reference(points, 3))

    def test_average_distance_grows_with_k(self, points):
        near = average_neighbor_distance(knn_reference(points, 2))
        far = average_neighbor_distance(knn_reference(points, 10))
        assert far > near

    def test_degree_histogram_totals(self, points):
        graph = knn_reference(points, k=3)
        histogram = degree_histogram(graph)
        assert sum(count * times for count, times in histogram.items()) == 30 * 3
        assert sum(histogram.values()) == 30

    def test_to_networkx(self, points):
        graph = knn_reference(points, k=2)
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 30
        assert nx_graph.number_of_edges() == 60
        # Edge weights carried over.
        edge = next(iter(nx_graph.edges(data=True)))
        assert "distance" in edge[2]
