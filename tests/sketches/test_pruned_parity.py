"""Pruned output parity: ``pruning="sketch"`` must change nothing.

The exact-fallback contract (DESIGN.md §3.1.7): with sound bounds only,
the pruned pipeline returns exactly the unpruned pipeline's output — on
the scalar kernel bit-for-bit, on vectorized kernels within the repo's
established 1e-9 relative kernel-parity tolerance (vectorized per-pair
floats legitimately depend on block composition, pruned or not).  Plus
the counter ledger: pruning must tile the pair relation exactly
(``EVALUATIONS + PAIRS_PRUNED == v(v−1)/2``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.covariance import row_inner_product
from repro.apps.dbscan import (
    dbscan_pairwise,
    dbscan_reference,
    euclidean_distance,
)
from repro.apps.docsim import (
    brute_force_similarity,
    build_tfidf,
    cosine_similarity,
    pairwise_similarity,
)
from repro.apps.knn import knn_graph, knn_reference
from repro.core.block import BlockScheme
from repro.core.element import results_matrix
from repro.core.pairwise import (
    EVALUATIONS,
    PAIRS_PRUNED,
    PAIRWISE_GROUP,
    PRUNE_FALSE_POSITIVES,
    SKETCH_BYTES,
    PairwiseComputation,
)
from repro.core.runner import auto_pairwise
from repro.workloads.generator import make_blobs, make_documents, make_matrix

V = 23  # matches the any_scheme fixture
REL_TOLERANCE = 1e-9  # the repo's vectorized kernel-parity contract


def sparse_vectors(v: int = V):
    return build_tfidf(
        make_documents(
            v, vocabulary=120, length=30, num_topics=4, topic_strength=0.85, seed=11
        )
    )


def dense_points(v: int = V):
    return make_blobs(v, dim=3, num_clusters=3, spread=0.7, seed=11)


def assert_same_pairs(got: dict, want: dict, *, exact: bool) -> None:
    assert got.keys() == want.keys()
    if exact:
        assert got == want
    else:
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=REL_TOLERANCE)


class TestThresholdJoinParity:
    @pytest.mark.parametrize("threshold", [0.1, 0.3, 0.6])
    def test_scalar_kernel_bit_identical(self, threshold):
        vectors = sparse_vectors()
        scheme = BlockScheme(V, 4)
        unpruned = pairwise_similarity(
            vectors, scheme, kernel=None, threshold=threshold
        )
        pruned = pairwise_similarity(
            vectors, scheme, kernel=None, threshold=threshold, pruning="sketch"
        )
        # Scalar kernel: per-pair evaluation is block-independent, so the
        # surviving pairs' floats are bit-for-bit the unpruned ones.
        assert pruned == unpruned
        assert pruned.keys() == brute_force_similarity(
            vectors, threshold=threshold
        ).keys()

    def test_vectorized_kernel_within_parity_tolerance(self):
        vectors = sparse_vectors()
        scheme = BlockScheme(V, 4)
        unpruned = pairwise_similarity(vectors, scheme, kernel="auto", threshold=0.3)
        pruned = pairwise_similarity(
            vectors, scheme, kernel="auto", threshold=0.3, pruning="sketch"
        )
        assert_same_pairs(pruned, unpruned, exact=False)

    def test_cross_scheme_parity(self, any_scheme):
        vectors = sparse_vectors(any_scheme.v)
        want = brute_force_similarity(vectors, threshold=0.3)
        pruned = pairwise_similarity(
            vectors, any_scheme, threshold=0.3, pruning="sketch"
        )
        assert pruned.keys() == want.keys()
        for key in want:
            assert pruned[key] == pytest.approx(want[key], rel=REL_TOLERANCE)

    def test_estimate_mode_returns_subset(self):
        vectors = sparse_vectors()
        scheme = BlockScheme(V, 4)
        exact = pairwise_similarity(
            vectors, scheme, kernel=None, threshold=0.3, pruning="exact"
        )
        estimated = pairwise_similarity(
            vectors,
            scheme,
            kernel=None,
            threshold=0.3,
            pruning="sketch",
            exact_fallback=False,
            sketch_params={"margin": 0.1},
        )
        assert estimated.keys() <= exact.keys()
        for key in estimated:
            assert estimated[key] == exact[key]


class TestAppParity:
    def test_dbscan_matches_reference(self):
        points = dense_points(30)
        scheme = BlockScheme(30, 5)
        pruned = dbscan_pairwise(points, 1.5, 3, scheme, pruning="sketch")
        assert pruned == dbscan_reference(points, 1.5, 3)

    def test_knn_matches_reference(self):
        points = dense_points(30)
        scheme = BlockScheme(30, 5)
        pruned = knn_graph(points, 4, scheme, pruning="sketch")
        unpruned = knn_graph(points, 4, scheme)
        reference = knn_reference(points, 4)
        assert pruned.neighbors == unpruned.neighbors == reference.neighbors

    def test_covariance_thresholded_dot(self):
        rows = [row for row in make_matrix(20, 12, seed=5)]
        scheme = BlockScheme(20, 4)
        unpruned = PairwiseComputation(
            scheme, row_inner_product, threshold=1.0, pruning="off"
        ).run(list(rows))
        pruned = PairwiseComputation(
            scheme, row_inner_product, threshold=1.0, pruning="sketch"
        ).run(list(rows))
        assert results_matrix(pruned) == results_matrix(unpruned)


class TestCounterLedger:
    def test_conservation_invariant(self):
        vectors = sparse_vectors()
        scheme = BlockScheme(V, 4)
        computation = PairwiseComputation(
            scheme, cosine_similarity, threshold=0.5, pruning="sketch"
        )
        merged, pipeline = computation.run_cached(
            list(vectors), return_pipeline=True
        )
        evaluations = pipeline.counters.get(PAIRWISE_GROUP, EVALUATIONS)
        pruned = pipeline.counters.get(PAIRWISE_GROUP, PAIRS_PRUNED)
        assert evaluations + pruned == V * (V - 1) // 2
        assert pipeline.counters.get(PAIRWISE_GROUP, SKETCH_BYTES) > 0

    def test_false_positives_metered(self):
        vectors = sparse_vectors()
        scheme = BlockScheme(V, 4)
        computation = PairwiseComputation(
            scheme, cosine_similarity, threshold=0.5, pruning="sketch"
        )
        merged, pipeline = computation.run_cached(
            list(vectors), return_pipeline=True
        )
        evaluations = pipeline.counters.get(PAIRWISE_GROUP, EVALUATIONS)
        false_positives = pipeline.counters.get(
            PAIRWISE_GROUP, PRUNE_FALSE_POSITIVES
        )
        output_pairs = len(results_matrix(merged))
        # Every survivor either qualified or is a metered false positive.
        assert false_positives == evaluations - output_pairs

    def test_unpruned_run_reports_zero_pruning(self):
        vectors = sparse_vectors()
        scheme = BlockScheme(V, 4)
        computation = PairwiseComputation(
            scheme, cosine_similarity, threshold=0.5, pruning="exact"
        )
        _, pipeline = computation.run_cached(list(vectors), return_pipeline=True)
        assert pipeline.counters.get(PAIRWISE_GROUP, EVALUATIONS) == V * (V - 1) // 2
        assert pipeline.counters.get(PAIRWISE_GROUP, PAIRS_PRUNED) == 0


class TestObjectiveValidation:
    def test_threshold_and_top_k_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            PairwiseComputation(
                BlockScheme(V, 4), cosine_similarity, threshold=0.5, top_k=3
            )

    def test_pruning_needs_objective(self):
        with pytest.raises(ValueError, match="objective"):
            PairwiseComputation(
                BlockScheme(V, 4), cosine_similarity, pruning="sketch"
            )

    def test_unknown_pruning_mode(self):
        with pytest.raises(ValueError, match="pruning"):
            PairwiseComputation(
                BlockScheme(V, 4), cosine_similarity, threshold=0.5, pruning="maybe"
            )

    def test_unregistered_comp_rejected(self):
        def anonymous(a, b):
            return 0.0

        with pytest.raises(ValueError, match="register_sketch"):
            PairwiseComputation(BlockScheme(V, 4), anonymous, threshold=0.5)

    def test_explicit_aggregator_conflicts(self):
        from repro.core.aggregate import ConcatAggregator

        with pytest.raises(ValueError, match="aggregator"):
            PairwiseComputation(
                BlockScheme(V, 4),
                cosine_similarity,
                threshold=0.5,
                aggregator=ConcatAggregator(),
            )

    def test_sketch_pruning_requires_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            PairwiseComputation(
                BlockScheme(V, 4),
                cosine_similarity,
                threshold=0.5,
                pruning="sketch",
                symmetric=False,
            )

    def test_top_k_similarity_not_implemented(self):
        with pytest.raises(NotImplementedError):
            PairwiseComputation(
                BlockScheme(V, 4), cosine_similarity, top_k=3, pruning="sketch"
            )

    def test_run_local_applies_objective_without_pruning(self):
        vectors = sparse_vectors()
        computation = PairwiseComputation(
            BlockScheme(V, 4), cosine_similarity, threshold=0.5, pruning="sketch"
        )
        local = computation.run_local(list(vectors))
        want = brute_force_similarity(vectors, threshold=0.5)
        assert results_matrix(local) == want


class TestAutoPairwise:
    def test_flat_forwards_pruning(self):
        vectors = sparse_vectors()
        merged, choice = auto_pairwise(
            list(vectors), cosine_similarity, threshold=0.5, pruning="sketch"
        )
        assert results_matrix(merged) == brute_force_similarity(
            vectors, threshold=0.5
        )

    def test_hierarchical_prunes_with_parity_or_refuses(self, monkeypatch):
        """Huge declared elements force the §7 fallback; its rounds are ordinary
        computations, so threshold pruning applies round by round with the flat
        result — and the one combination a round cannot prune soundly (top-k
        taus are indexed by dense id) is refused by ``_attach_pruning``, loudly,
        never answered wrongly."""
        from repro.mapreduce import SerialEngine

        MB = 1024 * 1024
        huge = {"element_size": 40 * MB, "maxws": 100 * MB, "maxis": 600 * MB}
        sketched = []  # elements sketched per round
        attach = PairwiseComputation._attach_pruning

        def watched(self, compute, payloads):
            sketched.append(len(payloads))
            return attach(self, compute, payloads)

        monkeypatch.setattr(PairwiseComputation, "_attach_pruning", watched)
        vectors = sparse_vectors(30)
        merged, choice = auto_pairwise(
            list(vectors), cosine_similarity, engine=SerialEngine(),
            threshold=0.5, pruning="sketch", **huge,
        )
        assert choice.is_hierarchical
        assert results_matrix(merged) == brute_force_similarity(vectors, threshold=0.5)
        # One suite per round, over that round's participants only.
        assert len(sketched) == choice.scheme.num_rounds and max(sketched) < 30

        with pytest.raises(NotImplementedError, match="top-k sketch pruning"):
            auto_pairwise(
                dense_points(30), euclidean_distance, engine=SerialEngine(),
                top_k=3, pruning="sketch", **huge,
            )
