"""Tile evaluation: a block of the pair matrix as one BLAS product.

Block, design and bipartite block describe each task as
triangle / cross tiles (``pair_tiles``); the dense kernels evaluate a whole
tile with ``evaluate_tile`` and the compute step scatters it as row and
column slices.  Held here:

- a triangle gives both orientations of a pair the same bits, on every
  tile-shaped scheme and every dense kernel (a BLAS ``X @ X.T`` is not
  exactly symmetric, so a tile that read both halves would fail
  ``PairResults.dense``'s symmetry check);
- the euclidean tile's Gram form never shows its cancellation: a duplicate
  point reads exactly 0.0, a near-duplicate matches the rows path within
  the parity tolerance, and a kNN over tied or duplicate points orders its
  neighbours as the brute-force reference does;
- a pool worker runs BLAS on one thread once it has evaluated a tile, and
  only then; the driver keeps its own thread count.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np
import pytest

from repro.apps.covariance import row_inner_product
from repro.apps.dbscan import euclidean_distance
from repro.apps.knn import knn_graph, knn_reference
from repro.core.bipartite import BipartiteBlockScheme
from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.element import PairResults, results_matrix
from repro.core.pairwise import PairwiseComputation
from repro.kernels import (
    CovarianceKernel,
    DenseCosineKernel,
    DenseDotKernel,
    DenseEuclideanKernel,
    WorkingSetStore,
)
from repro.mapreduce import Job, Mapper, MultiprocessEngine, Reducer, SerialEngine
from repro.mapreduce.tasks import openblas_functions

REL_TOLERANCE = 1e-9  # the kernel-parity contract


def dense_dot(a, b):
    return float(np.dot(a, b))


def dense_cosine(a, b):
    norms = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    return float(np.dot(a, b)) / norms if norms > 0 else 0.0


class GemmDotKernel(DenseDotKernel):
    """``dense-dot`` with a copied right operand, so a triangle's product is not symmetric.

    For ``X @ X.T`` numpy calls a symmetric rank-k update; against a copy
    it calls a general product, whose mirrored entries may differ in the
    last bit.  The compute step must not depend on which one a kernel uses.
    """

    name = "gemm-dot"

    def evaluate_tile(self, left, right):
        return left @ right.copy().T


#: dense kernel → (the pair function the scalar reference calls, the kernel spec)
DENSE_KERNELS = {
    "dense-dot": (dense_dot, "dense-dot"),
    "dense-cosine": (dense_cosine, "dense-cosine"),
    "dense-euclidean": (euclidean_distance, "dense-euclidean"),
    "covariance": (row_inner_product, "covariance"),
    "gemm-dot": (dense_dot, GemmDotKernel()),
}

#: every scheme class whose tasks are tiles; the block triangles are 75
#: and 50 rows, where a general product is not exactly symmetric
TILE_SCHEMES = {
    "block": lambda: BlockScheme(150, 2),
    "block-paired": lambda: BlockScheme(150, 3, pair_diagonals=True),
    "design": lambda: DesignScheme(40),
    "design-gf": lambda: DesignScheme(70, allow_prime_powers=True),  # truncated q = 8
    "bipartite-block": lambda: BipartiteBlockScheme(50, 100, 2, 3),
    "block-singletons": lambda: BlockScheme(6, 6),  # one-point triangles, 1 × 1 crosses
}


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def covariance_rows(v: int, dim: int, seed: int) -> list[np.ndarray]:
    """Centered rows with an offset: dot products with long, cancelling sums."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(loc=3.0, scale=2.0, size=(v, dim))
    matrix -= matrix.mean(axis=0)
    return list(matrix)


@pytest.mark.parametrize("kernel_name", sorted(DENSE_KERNELS))
@pytest.mark.parametrize("scheme_name", sorted(TILE_SCHEMES))
def test_both_orientations_hold_the_same_bits(scheme_name, kernel_name):
    scheme = TILE_SCHEMES[scheme_name]()
    comp, kernel = DENSE_KERNELS[kernel_name]
    dataset = covariance_rows(scheme.v, 256, seed=5)
    merged = PairwiseComputation(scheme, comp, kernel=kernel).run(dataset)
    for eid, element in merged.items():
        for partner, value in element.results.items():
            assert bits(value) == bits(merged[partner].results[eid]), (eid, partner)
    PairResults.of(merged).dense()  # raises on the first asymmetric pair
    reference = results_matrix(PairwiseComputation(scheme, comp).run_local(dataset))
    got = results_matrix(merged)
    assert set(got) == set(reference)
    for key, want in reference.items():
        assert math.isclose(got[key], want, rel_tol=REL_TOLERANCE, abs_tol=1e-12), key


class TestTileAgainstRows:
    """``evaluate_tile`` vs the gather path over the same pairs."""

    @pytest.mark.parametrize(
        "kernel", [DenseDotKernel(), DenseCosineKernel(), DenseEuclideanKernel(), CovarianceKernel()],
        ids=lambda kernel: kernel.name,
    )
    def test_cross_tile_matches_rows(self, kernel):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(30, 40))
        matrix[4] = 0.0  # zero norm: cosine reads 0.0 on both paths
        store = WorkingSetStore(np.arange(1, 31), list(matrix))
        high, low = np.arange(13, 31), np.arange(1, 13)
        tile = kernel.evaluate_tile(matrix[12:], matrix[:12])
        pairs = np.column_stack((np.repeat(high, 12), np.tile(low, 18)))
        rows = kernel.evaluate_block(store, pairs)
        np.testing.assert_allclose(tile.ravel(), rows, rtol=REL_TOLERANCE, atol=1e-12)


class TestEuclideanCancellation:
    def test_duplicate_rows_read_exactly_zero(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(loc=5.0, size=(12, 512))
        matrix[7] = matrix[2]
        matrix[11] = matrix[2]
        tile = DenseEuclideanKernel().evaluate_tile(matrix, matrix)
        assert np.all(np.diag(tile) == 0.0)
        for a, b in [(2, 7), (7, 2), (2, 11), (7, 11)]:
            assert tile[a, b] == 0.0
        squared = (matrix**2).sum(axis=1)
        gram = squared[:, None] + squared[None, :] - 2.0 * (matrix @ matrix.T)
        assert gram[2, 7] != 0.0 or gram[2, 11] != 0.0 or gram[7, 11] != 0.0, (
            "the Gram form happened to be exact here; the duplicates test nothing"
        )

    def test_duplicates_read_zero_through_the_pipeline(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(loc=4.0, size=(20, 512))
        matrix[5] = matrix[4]  # a triangle of BlockScheme(20, 2) ...
        matrix[10:] = matrix[:10]  # ... and its cross tile
        got = results_matrix(
            PairwiseComputation(BlockScheme(20, 2), euclidean_distance, kernel="auto").run(
                list(matrix)
            )
        )
        same = [(i, j) for i, j in got if np.array_equal(matrix[i - 1], matrix[j - 1])]
        assert len(same) == 14  # ids k and k + 10; and 5, 6, 15, 16 are all one point
        assert {pair: got[pair] for pair in same} == dict.fromkeys(same, 0.0)

    def test_near_duplicates_match_the_rows_path(self):
        rng = np.random.default_rng(9)
        base = rng.normal(loc=10.0, size=(8, 512))
        matrix = np.vstack([base, base + rng.normal(scale=1e-6, size=base.shape)])
        kernel = DenseEuclideanKernel()
        tile = kernel.evaluate_tile(matrix, matrix)
        rows, cols = np.tril_indices(16, -1)
        reference = [euclidean_distance(matrix[a], matrix[b]) for a, b in zip(rows, cols)]
        np.testing.assert_allclose(tile[rows, cols], reference, rtol=REL_TOLERANCE, atol=0)

    @pytest.mark.parametrize("offset", [0.0, 1000.1], ids=["lattice", "far-lattice"])
    def test_knn_over_ties_and_duplicates_orders_like_the_reference(self, offset):
        """Integer lattice points tie exactly; far from the origin only the guard keeps them tied.

        At 1000.1 the coordinates are inexact, so the Gram form's rounding
        would break ties at random; every entry sits below the cutoff there,
        and the difference form ties exactly where the reference does.
        """
        rng = np.random.default_rng(4)
        points = [offset + rng.integers(-2, 3, size=8).astype(float) for _ in range(40)]
        points[25] = points[5].copy()
        points[31] = points[5].copy()
        reference = knn_reference(points, k=6)
        for scheme in (BlockScheme(40, 4), DesignScheme(40)):
            got = knn_graph(points, 6, scheme, kernel="dense-euclidean")
            for eid, expected in reference.neighbors.items():
                assert [p for p, _ in got.neighbors[eid]] == [p for p, _ in expected], eid
                np.testing.assert_allclose(
                    [d for _, d in got.neighbors[eid]], [d for _, d in expected],
                    rtol=REL_TOLERANCE, atol=0,
                )


# -- one BLAS thread per pool slot ----------------------------------------------


class BlasThreadsMapper(Mapper):
    """Reports the worker's OpenBLAS thread counts."""

    def map(self, key, value, context):
        context.emit(os.getpid(), [get() for get in openblas_functions("get_num_threads")])


class FirstReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, next(iter(values)))


def worker_thread_counts(engine) -> dict[int, list[int]]:
    job = Job(name="blas-threads", mapper=BlasThreadsMapper, reducer=FirstReducer, num_reducers=1)
    return dict(engine.run(job, [(0, None)]).records)


@pytest.fixture
def driver_threads():
    if not openblas_functions("set_num_threads"):
        pytest.skip("no OpenBLAS thread-count setter is loaded")
    counts = [get() for get in openblas_functions("get_num_threads")]
    yield counts
    assert [get() for get in openblas_functions("get_num_threads")] == counts


def test_a_pool_worker_pins_blas_to_one_thread_at_its_first_tile(driver_threads):
    points = list(np.random.default_rng(1).normal(size=(24, 16)))
    engine = MultiprocessEngine(max_workers=1)
    try:
        PairwiseComputation(BlockScheme(24, 3), euclidean_distance, engine=engine).run(points)
        (untouched,) = worker_thread_counts(engine).values()
        assert untouched == driver_threads  # the scalar kernel never reaches a tile
        PairwiseComputation(
            BlockScheme(24, 3), euclidean_distance, engine=engine, kernel="dense-euclidean"
        ).run(points)
        (pinned,) = worker_thread_counts(engine).values()
        assert pinned == [1] * len(driver_threads)
    finally:
        engine.close()


def test_the_driver_keeps_its_blas_threads_on_the_serial_engine(driver_threads):
    points = list(np.random.default_rng(1).normal(size=(24, 16)))
    PairwiseComputation(
        BlockScheme(24, 3), euclidean_distance, engine=SerialEngine(), kernel="dense-euclidean"
    ).run(points)
    # the fixture checks the driver's counts after the run
