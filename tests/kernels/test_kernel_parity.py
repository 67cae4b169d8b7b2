"""Kernel parity sweeps: every kernel vs the scalar loop vs run_local.

For each registered kernel, across every scheme family and both
``symmetric`` settings, the vectorized pipeline must reproduce the
in-process reference within 1e-9 relative tolerance, and the scalar
(default) pipeline must reproduce it *exactly*.  Also covers the cached
variant, the broadcast one-job path, empty and singleton working sets,
counter semantics, and kernel dispatch across process boundaries.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps.covariance import row_inner_product
from repro.apps.dbscan import euclidean_distance
from repro.apps.docsim import build_tfidf, cosine_similarity
from repro.core.broadcast import BroadcastScheme
from repro.core.element import ordered_results, results_matrix
from repro.core.pairwise import EVALUATIONS, PAIRWISE_GROUP, PairwiseComputation
from repro.core.scheme import DistributionScheme, SchemeMetrics
from repro.mapreduce import MultiprocessEngine
from repro.workloads.generator import make_documents

V = 23  # matches the any_scheme fixture

REL_TOLERANCE = 1e-9


def dense_dot(a, b):
    return float(np.dot(a, b))


def dense_cosine(a, b):
    norms = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    return float(np.dot(a, b)) / norms if norms > 0 else 0.0


def make_dense(v: int) -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    rows = [rng.normal(size=5) for _ in range(v)]
    if v > 3:
        rows[3] = np.zeros(5)  # zero-norm row exercises the cosine guard
    return rows


def make_sparse(v: int) -> list[dict[str, float]]:
    vectors = build_tfidf(make_documents(v, vocabulary=60, length=25, seed=11))
    if v > 2:
        vectors[2] = {}  # empty document
    if v > 7:
        vectors[7] = {"only": 1.0}  # singleton vector
    return vectors


#: kernel name → (pair function bound to it, dataset builder)
KERNEL_CASES = {
    "dense-dot": (dense_dot, make_dense),
    "dense-cosine": (dense_cosine, make_dense),
    "dense-euclidean": (euclidean_distance, make_dense),
    "covariance": (row_inner_product, make_dense),
    "csr-cosine": (cosine_similarity, make_sparse),
}


def assert_close_maps(got, want, *, exact=False):
    assert set(got) == set(want)
    for key, reference in want.items():
        if exact:
            assert got[key] == reference, key
        else:
            assert math.isclose(
                got[key], reference, rel_tol=REL_TOLERANCE, abs_tol=1e-12
            ), (key, got[key], reference)


def flatten(merged, symmetric):
    return results_matrix(merged) if symmetric else ordered_results(merged)


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_CASES))
@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "asym"])
class TestPipelineParity:
    def test_run_and_cached_match_local(self, any_scheme, kernel_name, symmetric):
        comp, build = KERNEL_CASES[kernel_name]
        dataset = build(V)
        reference = flatten(
            PairwiseComputation(
                any_scheme, comp, symmetric=symmetric
            ).run_local(dataset),
            symmetric,
        )
        computation = PairwiseComputation(
            any_scheme, comp, symmetric=symmetric, kernel=kernel_name
        )
        assert_close_maps(flatten(computation.run(dataset), symmetric), reference)
        assert_close_maps(
            flatten(computation.run_cached(dataset), symmetric), reference
        )

    def test_scalar_pipeline_is_bit_identical(self, any_scheme, kernel_name, symmetric):
        comp, build = KERNEL_CASES[kernel_name]
        dataset = build(V)
        reference = flatten(
            PairwiseComputation(
                any_scheme, comp, symmetric=symmetric
            ).run_local(dataset),
            symmetric,
        )
        for spec in (None, "scalar"):
            computation = PairwiseComputation(
                any_scheme, comp, symmetric=symmetric, kernel=spec
            )
            assert_close_maps(
                flatten(computation.run(dataset), symmetric), reference, exact=True
            )


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_CASES))
def test_broadcast_one_job_parity(kernel_name):
    comp, build = KERNEL_CASES[kernel_name]
    dataset = build(V)
    scheme = BroadcastScheme(V, num_tasks=5)
    reference = results_matrix(
        PairwiseComputation(scheme, comp).run_local(dataset)
    )
    merged = PairwiseComputation(scheme, comp, kernel=kernel_name).run_broadcast_job(
        dataset
    )
    assert_close_maps(results_matrix(merged), reference)


def test_auto_matches_explicit_kernel(any_scheme):
    dataset = make_sparse(V)
    auto = PairwiseComputation(any_scheme, cosine_similarity, kernel="auto")
    explicit = PairwiseComputation(
        any_scheme, cosine_similarity, kernel="csr-cosine"
    )
    assert results_matrix(auto.run(dataset)) == results_matrix(explicit.run(dataset))


def test_empty_working_sets():
    """More broadcast tasks than pairs: some tasks evaluate nothing."""
    scheme = BroadcastScheme(2, num_tasks=4)
    dataset = make_dense(2)
    for kernel in (None, "dense-euclidean"):
        merged = PairwiseComputation(
            scheme, euclidean_distance, kernel=kernel
        ).run(dataset)
        pairs = results_matrix(merged)
        assert set(pairs) == {(2, 1)}
        assert math.isclose(
            pairs[(2, 1)],
            euclidean_distance(dataset[1], dataset[0]),
            rel_tol=REL_TOLERANCE,
        )


class SingletonScheme(DistributionScheme):
    """Task 0 sees all elements; task 1 holds element 1 alone (no pairs)."""

    def get_subsets(self, element_id: int) -> list[int]:
        self._check_element_id(element_id)
        return [0, 1] if element_id == 1 else [0]

    def get_pairs(self, subset_id, members):
        self._check_subset_id(subset_id)
        if subset_id == 1:
            return []
        return [(i, j) for i in members for j in members if i > j]

    @property
    def num_tasks(self) -> int:
        return 2

    def metrics(self) -> SchemeMetrics:
        triangle = self.v * (self.v - 1) // 2
        return SchemeMetrics(
            scheme="singleton-test",
            v=self.v,
            num_tasks=2,
            communication_records=2 * (self.v + 1),
            replication_factor=(self.v + 1) / self.v,
            working_set_elements=self.v,
            evaluations_per_task=triangle / 2,
        )


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_CASES))
def test_singleton_working_set(kernel_name):
    """A working set of one element produces no pairs but still merges."""
    comp, build = KERNEL_CASES[kernel_name]
    scheme = SingletonScheme(6)
    dataset = build(6)
    reference = results_matrix(
        PairwiseComputation(scheme, comp).run_local(dataset)
    )
    computation = PairwiseComputation(scheme, comp, kernel=kernel_name)
    for merged in (computation.run(dataset), computation.run_cached(dataset)):
        assert set(merged) == set(range(1, 7))
        assert_close_maps(results_matrix(merged), reference)


@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "asym"])
def test_evaluation_counter_preserved(any_scheme, symmetric):
    """Vectorized dispatch meters EVALUATIONS exactly like the pair loop."""
    dataset = make_dense(V)
    triangle = V * (V - 1) // 2
    for kernel in (None, "dense-euclidean"):
        computation = PairwiseComputation(
            any_scheme, euclidean_distance, symmetric=symmetric, kernel=kernel
        )
        _merged, pipeline = computation.run(dataset, return_pipeline=True)
        expected = triangle if symmetric else 2 * triangle
        assert pipeline.counters.get(PAIRWISE_GROUP, EVALUATIONS) == expected


def test_kernel_dispatch_across_processes():
    """config['kernel'] travels to pool workers; bindings resolve there."""
    dataset = make_sparse(12)
    scheme = BroadcastScheme(12, num_tasks=4)
    reference = results_matrix(
        PairwiseComputation(scheme, cosine_similarity).run_local(dataset)
    )
    engine = MultiprocessEngine(max_workers=2)
    try:
        merged = PairwiseComputation(
            scheme, cosine_similarity, engine=engine, kernel="auto"
        ).run_cached(dataset)
    finally:
        engine.close()
    assert_close_maps(results_matrix(merged), reference)
