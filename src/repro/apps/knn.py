"""k-nearest-neighbour graphs from pairwise distances.

The natural consumer of the :class:`~repro.core.aggregate.TopKAggregator`:
run the pairwise distance computation keeping only each element's k
closest partners, then assemble the kNN digraph.  Used by a large family
of algorithms adjacent to the paper's §1 motivations (spectral
clustering, manifold learning, outlier detection); included here both as
an application and as the canonical demonstration that *aggregation
changes what is stored, not what is computed* — the schemes still
evaluate every pair exactly once.

Also provides the *mutual* kNN sparsification (keep an edge only when
each endpoint is in the other's top-k) and an exact brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.runner import auto_pairwise
from ..core.scheme import DistributionScheme
from .dbscan import euclidean_distance


@dataclass(frozen=True)
class KnnGraph:
    """Directed kNN graph: ``neighbors[i]`` = i's k closest, ascending.

    Each neighbour entry is ``(partner_id, distance)``; ties break on
    partner id and a NaN distance ranks last (the TopKAggregator's
    deterministic rule).
    """

    k: int
    neighbors: dict[int, tuple[tuple[int, float], ...]]

    @property
    def num_elements(self) -> int:
        return len(self.neighbors)

    def edge_set(self) -> set[tuple[int, int]]:
        """Directed edges (i → j) of the graph."""
        return {
            (eid, partner)
            for eid, partners in self.neighbors.items()
            for partner, _distance in partners
        }

    def mutual_edges(self) -> set[tuple[int, int]]:
        """Undirected mutual-kNN edges, canonical (i, j) with i > j."""
        directed = self.edge_set()
        return {
            (max(a, b), min(a, b))
            for a, b in directed
            if (b, a) in directed
        }

    def to_networkx(self):
        """Directed networkx graph with distances as edge weights."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.neighbors)
        for eid, partners in self.neighbors.items():
            for partner, distance in partners:
                graph.add_edge(eid, partner, distance=distance)
        return graph


def knn_graph(
    points: Sequence[np.ndarray],
    k: int,
    scheme: DistributionScheme,
    *,
    engine=None,
    kernel=None,
    pruning: str = "off",
) -> KnnGraph:
    """Build the kNN graph through the pairwise pipeline under ``scheme``.

    The run goes through :func:`~repro.core.runner.auto_pairwise`, so the
    payloads take the route :func:`~repro.core.chooser.route_payloads`
    prices for ``scheme``: the one-job cached plan when its replication
    exceeds the node count or it is a
    :class:`~repro.core.broadcast.BroadcastScheme`, the shuffle otherwise.

    ``kernel`` is forwarded to
    :class:`~repro.core.pairwise.PairwiseComputation`; pass
    ``"auto"`` (or ``"dense-euclidean"``) to batch distance evaluation
    through the vectorized kernel instead of one call per pair.

    ``pruning="sketch"`` routes the run through the top-k pruner: pairs
    whose projection-sketch distance lower bound exceeds both endpoints'
    k-th-best upper bound are skipped before kernel dispatch.  Each
    element's k-th-best bound is taken over the partners ``scheme``
    requires, so the graph is identical to the unpruned one on every
    schema.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= len(points):
        raise ValueError(f"k={k} needs at least k+1={k + 1} points, got {len(points)}")
    merged, _choice = auto_pairwise(
        points, euclidean_distance, scheme=scheme,
        top_k=k, pruning=pruning, engine=engine, kernel=kernel,
    )
    # The aggregator kept at most k partners per element, in rank order.
    neighbors = {eid: tuple(element.results.items()) for eid, element in merged.items()}
    return KnnGraph(k=k, neighbors=neighbors)


def knn_reference(points: Sequence[np.ndarray], k: int) -> KnnGraph:
    """Brute-force oracle with the same tie-breaking rule."""
    if k < 1 or k >= len(points):
        raise ValueError(f"need 1 <= k < v, got k={k}, v={len(points)}")
    arr = [np.asarray(p, dtype=float) for p in points]
    v = len(arr)
    neighbors = {}
    for i in range(v):
        distances = [
            (euclidean_distance(arr[i], arr[j]), j + 1)
            for j in range(v)
            if j != i
        ]
        distances.sort()
        neighbors[i + 1] = tuple((eid, d) for d, eid in distances[:k])
    return KnnGraph(k=k, neighbors=neighbors)


def recall_at_k(graph: KnnGraph, reference: KnnGraph) -> float:
    """Fraction of true kNN edges present in ``graph`` (1.0 = exact)."""
    if graph.k != reference.k:
        raise ValueError("graphs built with different k")
    truth = reference.edge_set()
    got = graph.edge_set()
    return len(got & truth) / len(truth) if truth else 1.0


def average_neighbor_distance(graph: KnnGraph) -> float:
    """Mean distance over all stored edges (a compactness summary)."""
    distances = [
        distance
        for partners in graph.neighbors.values()
        for _partner, distance in partners
    ]
    if not distances:
        raise ValueError("graph has no edges")
    return float(sum(distances) / len(distances))


def degree_histogram(graph: KnnGraph) -> Mapping[int, int]:
    """In-degree histogram of the directed kNN graph (hub detection)."""
    indegree: dict[int, int] = {eid: 0 for eid in graph.neighbors}
    for _eid, partners in graph.neighbors.items():
        for partner, _distance in partners:
            indegree[partner] += 1
    histogram: dict[int, int] = {}
    for count in indegree.values():
        histogram[count] = histogram.get(count, 0) + 1
    return dict(sorted(histogram.items()))
