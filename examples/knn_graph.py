#!/usr/bin/env python
"""k-nearest-neighbour graph via pairwise distances with top-k aggregation.

Demonstrates that the aggregation step (Algorithm 2) controls what is
*stored*, not what is *computed*: the scheme still evaluates every pair
exactly once, but each element keeps only its k closest partners — the
kNN graph many §1-adjacent algorithms start from.  Uses the design scheme
on the order-9 plane over GF(9), the smallest plane that holds 90 points.

Run:  python examples/knn_graph.py
"""

from repro.apps import (
    average_neighbor_distance,
    degree_histogram,
    knn_graph,
    knn_reference,
    recall_at_k,
)
from repro.core import DesignScheme
from repro.workloads import make_blobs

V = 90
K = 5


def main() -> None:
    points = make_blobs(V, dim=2, num_clusters=4, spread=0.4, seed=33)

    scheme = DesignScheme(V, allow_prime_powers=True)
    graph = knn_graph(points, K, scheme)
    reference = knn_reference(points, K)

    print(f"kNN graph over {V} points, k={K}, under {scheme.describe()}")
    print(f"  recall vs brute force : {recall_at_k(graph, reference):.3f}")
    assert graph.neighbors == reference.neighbors

    mutual = graph.mutual_edges()
    print(f"  directed edges        : {len(graph.edge_set())}")
    print(f"  mutual (undirected)   : {len(mutual)}")
    print(f"  mean neighbour dist   : {average_neighbor_distance(graph):.3f}")

    histogram = degree_histogram(graph)
    hubs = max(histogram)
    print(f"  in-degree histogram   : {dict(histogram)}")
    print(f"  most-popular point has in-degree {hubs}")

    nx_graph = graph.to_networkx()
    import networkx as nx

    components = nx.number_weakly_connected_components(nx_graph)
    print(f"  weakly connected comps: {components} "
          f"(≈ the {4} planted blobs at this k)")


if __name__ == "__main__":
    main()
