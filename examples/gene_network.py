#!/usr/bin/env python
"""Gene-regulatory relevance network via pairwise mutual information
(paper §1, example 3).

Plants dependent gene pairs in a synthetic expression matrix, computes
all-pairs mutual information through the pairwise pipeline (broadcast
scheme on the one-job cached plan — the dataset is small, the function
comparatively expensive, exactly §5.1's target regime), thresholds into a
relevance network, and checks the planted edges are recovered.

Run:  python examples/gene_network.py
"""

from repro import BroadcastScheme, PairwiseComputation
from repro.apps import MutualInformationComp, build_relevance_network
from repro.workloads import make_expression_matrix

GENES = 40
SAMPLES = 120
PLANTED = 6
THRESHOLD = 0.8


def main() -> None:
    matrix = make_expression_matrix(
        GENES, SAMPLES, num_linked_pairs=PLANTED, link_noise=0.15, seed=21
    )
    profiles = [matrix[i] for i in range(GENES)]

    # The one-job form: dataset via distributed cache, map tasks
    # evaluate their label chunk, reducers aggregate per gene.
    scheme = BroadcastScheme(GENES, num_tasks=8)
    computation = PairwiseComputation(scheme, MutualInformationComp(bins=8))
    merged = computation.run_cached(profiles)
    mi = merged.pairs()

    network = build_relevance_network(mi, GENES, THRESHOLD)
    planted = {(2 * k + 2, 2 * k + 1) for k in range(PLANTED)}
    found = {(i, j) for i, j, _ in network.edges}

    print(f"{GENES} genes × {SAMPLES} samples, {PLANTED} planted links, "
          f"MI threshold {THRESHOLD} nats")
    print(f"  edges in network : {len(network.edges)}")
    print(f"  planted recovered: {len(planted & found)}/{PLANTED}")
    assert planted <= found, f"missed planted links: {planted - found}"

    print("  strongest edges:")
    for i, j, value in sorted(network.edges, key=lambda e: -e[2])[:PLANTED]:
        marker = "planted" if (i, j) in planted else "spurious"
        print(f"    g{j:<3d}— g{i:<3d} MI={value:.3f}  [{marker}]")

    components = network.components()
    nontrivial = [c for c in components if len(c) > 1]
    print(f"  connected components > 1 gene: {len(nontrivial)}")


if __name__ == "__main__":
    main()
