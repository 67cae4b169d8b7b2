"""Unit tests for the pair-evaluation kernel subsystem (tier-1)."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.apps.covariance import row_inner_product
from repro.apps.dbscan import euclidean_distance
from repro.apps.docsim import cosine_similarity
from repro.kernels import (
    CovarianceKernel,
    CsrCosineKernel,
    DenseCosineKernel,
    DenseDotKernel,
    DenseEuclideanKernel,
    PairKernel,
    ScalarKernel,
    WorkingSetStore,
    available_kernels,
    get_kernel,
    kernel_for_comp,
    pair_index_array,
    register_comp,
    register_kernel,
    resolve_kernel,
    select_kernel,
)
from repro.kernels.base import stack_rows


def close(got, want, rel=1e-9):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=rel, abs_tol=1e-12), (g, w)


def all_pairs(v):
    return [(i, j) for i in range(2, v + 1) for j in range(1, i)]


class TestPairIndexArray:
    def test_materializes_tuples(self):
        block = pair_index_array([(2, 1), (3, 1), (3, 2)])
        assert block.shape == (3, 2)
        assert block.dtype == np.int64
        assert block.tolist() == [[2, 1], [3, 1], [3, 2]]

    def test_empty_relation_keeps_shape(self):
        block = pair_index_array([])
        assert block.shape == (0, 2)
        assert block.dtype == np.int64

    def test_ndarray_passthrough(self):
        arr = np.array([[2, 1], [3, 2]], dtype=np.int64)
        assert pair_index_array(arr) is arr

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            pair_index_array([(1, 2, 3)])


class TestScalarKernel:
    def test_matches_loop_in_block_order(self):
        calls = []

        def comp(a, b):
            calls.append((a, b))
            return a - b

        payloads = {1: 10.0, 2: 20.0, 3: 30.0}
        block = pair_index_array([(2, 1), (3, 1), (3, 2)])
        out = ScalarKernel(comp).evaluate_block(payloads, block)
        assert out == [10.0, 20.0, 10.0]
        assert calls == [(20.0, 10.0), (30.0, 10.0), (30.0, 20.0)]

    def test_supports_anything(self):
        kernel = ScalarKernel(lambda a, b: 0)
        assert kernel.supports(object())
        assert kernel.supports(None)

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            ScalarKernel("not-a-function")

    def test_describe_names_comp(self):
        assert "cosine_similarity" in ScalarKernel(cosine_similarity).describe()


class TestDenseKernels:
    @pytest.fixture
    def payloads(self):
        rng = np.random.default_rng(3)
        store = {eid: rng.normal(size=6) for eid in range(1, 11)}
        store[4] = np.zeros(6)  # zero-norm edge case for cosine
        return store

    def _scalar(self, comp, payloads, block):
        return ScalarKernel(comp).evaluate_block(payloads, block)

    def test_dot_matches_scalar(self, payloads):
        block = pair_index_array(all_pairs(10))
        got = DenseDotKernel().evaluate_block(payloads, block)
        close(got, self._scalar(lambda a, b: float(np.dot(a, b)), payloads, block))

    def test_euclidean_matches_scalar(self, payloads):
        block = pair_index_array(all_pairs(10))
        got = DenseEuclideanKernel().evaluate_block(payloads, block)
        close(got, self._scalar(euclidean_distance, payloads, block))

    def test_cosine_matches_scalar_and_zero_norm(self, payloads):
        def cosine(a, b):
            norms = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
            return float(np.dot(a, b)) / norms if norms > 0 else 0.0

        block = pair_index_array(all_pairs(10))
        got = DenseCosineKernel().evaluate_block(payloads, block)
        close(got, self._scalar(cosine, payloads, block))
        zero_row = got[block.tolist().index([4, 1])]
        assert zero_row == 0.0

    def test_covariance_tile_and_rows_paths_agree(self, payloads):
        kernel = CovarianceKernel()
        full = pair_index_array(all_pairs(10))
        reference = self._scalar(row_inner_product, payloads, full)
        close(kernel.evaluate_block(payloads, full), reference)
        matrix = np.stack(list(payloads.values()))
        tile = kernel.evaluate_tile(matrix, matrix)
        close([tile[i - 1, j - 1] for i, j in full.tolist()], reference)
        cross = kernel.evaluate_tile(matrix[6:], matrix[:3])  # ids 7..10 × 1..3
        rows = pair_index_array([(i, j) for i in range(7, 11) for j in range(1, 4)])
        close(cross.ravel(), self._scalar(row_inner_product, payloads, rows))

    @pytest.mark.parametrize(
        "kernel", [DenseDotKernel(), DenseCosineKernel(), DenseEuclideanKernel(), CovarianceKernel()]
    )
    @pytest.mark.parametrize("num_pairs", [10, 400])
    def test_tiled_evaluation_is_bit_identical_to_one_gather(self, kernel, num_pairs):
        """The unchunked gather — the whole block's operands at once — is the reference.

        Rows of 16 KiB make a gather chunk 64 pairs: 400 pairs span seven
        chunks (the last one short), 10 pairs fit inside one.  Every kernel
        gathers a row block, covariance included — a BLAS product is only
        ever taken over a tile (``evaluate_tile``).  A plain store and an
        admitted working set must give the same bits.
        """
        rng = np.random.default_rng(11)
        v = 60
        store = {eid: rng.normal(size=2048) for eid in range(1, v + 1)}
        store[7] = np.zeros(2048)
        chosen = rng.choice(v * (v - 1) // 2, size=num_pairs, replace=False)
        block = pair_index_array([all_pairs(v)[k] for k in sorted(chosen.tolist())])
        matrix = np.stack([store[eid] for eid in range(1, v + 1)])
        untiled = kernel._reduce(matrix[block[:, 0] - 1], matrix[block[:, 1] - 1])
        assert np.array_equal(kernel.evaluate_block(store, block), untiled)
        admitted = WorkingSetStore(np.arange(1, v + 1), store.values())
        assert np.array_equal(kernel.evaluate_block(admitted, block), untiled)
        assert np.array_equal(
            kernel.evaluate_block(admitted, block[:, ::-1]),
            kernel.evaluate_block(store, block[:, ::-1]),
        )

    def test_working_set_store_stacks_once_and_read_only(self, payloads):
        admitted = WorkingSetStore(np.arange(1, 11), payloads.values())
        assert dict(admitted) == payloads and admitted.ids.tolist() == list(payloads)
        assert all(admitted[eid] is payloads[eid] for eid in payloads)
        matrix = admitted.form(stack_rows)
        assert admitted.form(stack_rows) is matrix
        assert np.array_equal(matrix, np.stack(list(payloads.values())))
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0

    def test_empty_block(self, payloads):
        empty = DenseDotKernel().evaluate_block(payloads, pair_index_array([]))
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_supports_dense_only(self):
        kernel = DenseDotKernel()
        assert kernel.supports(np.zeros(3))
        assert kernel.supports([1.0, 2.0])
        assert not kernel.supports({"a": 1.0})
        assert not kernel.supports(np.zeros((2, 2)))
        assert not kernel.supports("text")


class TestCsrCosineKernel:
    @pytest.fixture
    def payloads(self):
        rng = np.random.default_rng(5)
        terms = [f"t{i}" for i in range(40)]
        store = {}
        for eid in range(1, 13):
            chosen = rng.choice(terms, size=8, replace=False)
            vector = {term: float(rng.uniform(0.1, 1.0)) for term in chosen}
            norm = math.sqrt(sum(w * w for w in vector.values()))
            store[eid] = {term: w / norm for term, w in vector.items()}
        store[5] = {}  # empty document
        store[9] = {"t0": 1.0}  # singleton vector
        return store

    def test_matches_scalar_cosine(self, payloads):
        block = pair_index_array(all_pairs(12))
        got = CsrCosineKernel().evaluate_block(payloads, block)
        close(got, ScalarKernel(cosine_similarity).evaluate_block(payloads, block))

    def test_gather_path_matches(self, payloads):
        # 3 pairs of a 12-element triangle ≈ 4.5% coverage → gather path.
        block = pair_index_array([(2, 1), (9, 5), (12, 3)])
        got = CsrCosineKernel().evaluate_block(payloads, block)
        close(got, ScalarKernel(cosine_similarity).evaluate_block(payloads, block))

    def test_all_empty_vectors(self):
        payloads = {1: {}, 2: {}, 3: {}}
        block = pair_index_array(all_pairs(3))
        assert np.array_equal(CsrCosineKernel().evaluate_block(payloads, block), [0.0, 0.0, 0.0])

    def test_dense_fallback_matches(self, payloads, monkeypatch):
        import repro.kernels.sparse as sparse_module

        monkeypatch.setattr(sparse_module, "_sparse", None)
        self.check_every_path(payloads, dense=True)

    def test_scipy_matches_on_every_path(self, payloads):
        pytest.importorskip("scipy.sparse")
        self.check_every_path(payloads, dense=False)

    @staticmethod
    def check_every_path(payloads, dense):
        """Plain store, root and view; Gram, gather and tile, against the scalar cosine."""
        kernel, scalar = CsrCosineKernel(), ScalarKernel(cosine_similarity)
        root = WorkingSetStore(payloads=payloads)
        view = root.view(np.array([2, 5, 9, 12]))
        for store in (payloads, root, view):
            for block in (all_pairs(12), [(2, 1), (9, 5)], [(12, 9), (5, 2)]):
                block = pair_index_array(block)
                if store is view and not set(block.ravel().tolist()) <= set(view):
                    continue
                close(kernel.evaluate_block(store, block), scalar.evaluate_block(payloads, block))
        matrix = root.form(kernel.to_matrix)
        assert isinstance(matrix, np.ndarray) == dense
        high, low = np.array([9, 10, 11, 12]), np.array([1, 2, 5])
        tile = kernel.evaluate_tile(matrix[root.rows(high)], matrix[root.rows(low)])
        assert isinstance(tile, np.ndarray) and tile.shape == (4, 3)
        rows = np.column_stack((np.repeat(high, 3), np.tile(low, 4)))
        close(tile.ravel(), scalar.evaluate_block(payloads, rows))

    def test_supports(self):
        kernel = CsrCosineKernel()
        assert kernel.supports({"term": 0.5})
        assert kernel.supports({})  # empty document is a valid zero vector
        assert not kernel.supports({1: 0.5})
        assert not kernel.supports(np.zeros(3))
        assert not kernel.supports([0.5])

    @pytest.mark.parametrize(
        "weight", [0.5, np.float32(0.5), np.float64(0.5), 2, np.int64(2)], ids=repr
    )
    def test_auto_takes_any_real_weight(self, weight):
        resolved = resolve_kernel("auto", cosine_similarity, {"a": weight})
        assert isinstance(resolved, CsrCosineKernel)

    @pytest.mark.parametrize("weight", [True, np.True_, "0.5", None, 1j], ids=repr)
    def test_auto_falls_back_for_non_real_weights(self, weight):
        resolved = resolve_kernel("auto", cosine_similarity, {"a": weight})
        assert isinstance(resolved, ScalarKernel)


class TestRegistry:
    def test_builtins_registered(self):
        names = set(available_kernels())
        assert {
            "dense-dot",
            "dense-cosine",
            "dense-euclidean",
            "covariance",
            "csr-cosine",
        } <= names

    def test_get_kernel_unknown_lists_registered(self):
        with pytest.raises(KeyError, match="csr-cosine"):
            get_kernel("no-such-kernel")

    def test_register_kernel_type_checked(self):
        with pytest.raises(TypeError, match="PairKernel"):
            register_kernel(object())

    def test_register_kernel_duplicate_needs_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(CsrCosineKernel())
        register_kernel(CsrCosineKernel(), replace=True)

    def test_register_comp_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            register_comp(lambda a, b: 0, "no-such-kernel")

    def test_app_bindings(self):
        assert kernel_for_comp(cosine_similarity) == "csr-cosine"
        assert kernel_for_comp(row_inner_product) == "covariance"
        assert kernel_for_comp(euclidean_distance) == "dense-euclidean"
        assert kernel_for_comp(lambda a, b: 0) is None

    def test_select_kernel_probes_payload(self):
        assert select_kernel(cosine_similarity, {"a": 1.0}).name == "csr-cosine"
        # bound kernel rejects the payload shape → scalar fallback
        fallback = select_kernel(cosine_similarity, np.zeros(3))
        assert isinstance(fallback, ScalarKernel)
        assert fallback.comp is cosine_similarity

    def test_select_kernel_unbound_comp_is_scalar(self):
        def unbound(a, b):
            return 0

        assert isinstance(select_kernel(unbound, {"a": 1.0}), ScalarKernel)


class TestResolveKernel:
    def test_none_and_scalar_are_bit_identical_default(self):
        for spec in (None, "scalar"):
            kernel = resolve_kernel(spec, cosine_similarity)
            assert isinstance(kernel, ScalarKernel)
            assert kernel.comp is cosine_similarity

    def test_auto_uses_binding(self):
        kernel = resolve_kernel("auto", cosine_similarity, {"a": 1.0})
        assert kernel.name == "csr-cosine"

    def test_auto_without_sample_uses_binding(self):
        assert resolve_kernel("auto", cosine_similarity).name == "csr-cosine"

    def test_named_kernel_strict(self):
        assert resolve_kernel("dense-dot", cosine_similarity).name == "dense-dot"
        with pytest.raises(KeyError):
            resolve_kernel("no-such-kernel", cosine_similarity)

    def test_instance_passthrough(self):
        kernel = DenseDotKernel()
        assert resolve_kernel(kernel, cosine_similarity) is kernel

    def test_bad_spec_type(self):
        with pytest.raises(TypeError, match="kernel"):
            resolve_kernel(42, cosine_similarity)


class TestPicklability:
    """Kernels travel inside job configs to worker processes."""

    @pytest.mark.parametrize(
        "kernel",
        [
            DenseDotKernel(),
            DenseCosineKernel(),
            DenseEuclideanKernel(),
            CovarianceKernel(),
            CsrCosineKernel(),
            ScalarKernel(cosine_similarity),
        ],
        ids=lambda k: k.describe(),
    )
    def test_round_trips(self, kernel):
        clone = pickle.loads(pickle.dumps(kernel))
        assert isinstance(clone, PairKernel)
        assert clone.name == kernel.name
