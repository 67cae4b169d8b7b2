"""The CSR kernel's gather form and the sketch pass that feeds it.

``row_dots`` dots pairs of rows straight off a CSR matrix's arrays; it is
checked against the scalar pair function over the dict payloads, for
memory that does not grow with the vocabulary width, and the kernel's
SciPy gather for large blocks against ``row_dots``.  The sketch pass's
bucket norms are pinned by digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.docsim import cosine_similarity
from repro.kernels import sparse
from repro.kernels.sparse import CsrCosineKernel, row_dots
from repro.sketches import build_sparse_cosine_sketch

needs_scipy = pytest.mark.skipif(sparse._sparse is None, reason="SciPy is not installed")

TERMS = [f"t{i}" for i in range(12)]  # small, so pairs share terms often

vectors = st.dictionaries(
    st.sampled_from(TERMS),
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
    max_size=len(TERMS),
)


def csr(payloads: list[dict[str, float]], index_dtype) -> object:
    """The kernel's matrix form of ``payloads`` with ``index_dtype`` index arrays."""
    matrix = CsrCosineKernel.to_matrix(payloads)
    return sparse._sparse.csr_matrix(
        (matrix.data, matrix.indices.astype(index_dtype), matrix.indptr.astype(index_dtype)),
        shape=matrix.shape,
    )


@needs_scipy
@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(vectors, min_size=1, max_size=8),
    picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=12),
    index_dtype=st.sampled_from([np.int32, np.int64]),
)
def test_row_dots_is_the_scalar_cosine(payloads, picks, index_dtype):
    # empty documents, disjoint pairs, repeats and both orientations all come up
    k = len(payloads)
    rows = np.array([(a % k, b % k) for a, b in picks], dtype=np.int64)
    matrix = csr(payloads, index_dtype)
    arrays = (matrix.indptr, matrix.indices, matrix.data, matrix.shape[1])
    got = row_dots(*arrays, rows[:, 0], rows[:, 1])
    want = [cosine_similarity(payloads[a], payloads[b]) for a, b in rows.tolist()]
    assert got.dtype == np.float64 and got.shape == (len(rows),)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got, row_dots(*arrays, rows[:, 1], rows[:, 0]))


@needs_scipy
def test_keys_that_would_overflow_int64_raise():
    matrix = CsrCosineKernel.to_matrix([{"a": 1.0}, {"a": 1.0}])
    rows = np.array([0, 1])
    with pytest.raises(ValueError, match="overflow"):
        row_dots(matrix.indptr, matrix.indices, matrix.data, 2**62, rows, rows[::-1])


@needs_scipy
def test_blocks_past_the_row_dots_budget_take_the_scipy_gather():
    rng = np.random.default_rng(5)
    payloads = {eid: {f"t{j}": float(rng.normal()) for j in rng.choice(300, 40, replace=False)}
                for eid in range(1, 101)}
    pairs = np.unique(rng.integers(1, 101, size=(400, 2)), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    kernel = CsrCosineKernel()
    assert len(pairs) < kernel.GRAM_COVERAGE * 100 * 99 / 2  # not the Gram form
    assert 80 * len(pairs) > kernel.ROW_DOTS_ENTRIES  # 40 stored entries a row
    got = kernel.evaluate_block(payloads, pairs)
    want = [cosine_similarity(payloads[a], payloads[b]) for a, b in pairs.tolist()]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@needs_scipy
def test_a_single_pair_and_a_pair_sharing_no_term():
    matrix = CsrCosineKernel.to_matrix([{"a": 0.6, "b": 0.8}, {"b": 1.0}, {"c": 1.0}, {}])
    arrays = (matrix.indptr, matrix.indices, matrix.data, matrix.shape[1])
    assert row_dots(*arrays, np.array([1]), np.array([0])).tolist() == [0.8]
    disjoint = row_dots(*arrays, np.array([2, 3]), np.array([0, 0]))
    assert disjoint.dtype == np.float64 and disjoint.tolist() == [0.0, 0.0]


class WideVocabulary(CsrCosineKernel):
    """The CSR kernel over a fixed 200 000-term vocabulary: term ``w{j}`` is column j."""

    WIDTH = 200_000

    @staticmethod
    def to_matrix(vectors):
        lengths = [len(vector) for vector in vectors]
        cols = [int(term[1:]) for vector in vectors for term in vector]
        data = [weight for vector in vectors for weight in vector.values()]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        shape = (len(vectors), WideVocabulary.WIDTH)
        return sparse._sparse.csr_matrix((data, cols, indptr), shape=shape)


@needs_scipy
def test_the_gather_allocates_by_nonzeros_not_by_vocabulary_width():
    # 50 left rows over a 200 000-column vocabulary: a dense (lefts x width)
    # scratch would allocate 80 MB per block
    rng = np.random.default_rng(7)
    terms = rng.choice(WideVocabulary.WIDTH, size=(100, 25), replace=False)
    payloads = {eid: {f"w{j}": 0.2 for j in row} for eid, row in enumerate(terms.tolist(), 1)}
    lefts = np.arange(1, 51)
    pairs = np.column_stack((np.repeat(lefts + 50, 4), np.tile(lefts, 4)))
    tracemalloc.start()
    try:
        got = WideVocabulary().evaluate_block(payloads, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    want = [cosine_similarity(payloads[a], payloads[b]) for a, b in pairs.tolist()]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sketch_bucket_norms_digest():
    gen_path = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "gen.py"
    spec = importlib.util.spec_from_file_location("e2e_gen", gen_path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs = gen.tfidf_documents(200, 7)
    suite = build_sparse_cosine_sketch(dict(enumerate(docs, 1)))
    digest = hashlib.sha256(suite.bucket_norms.tobytes()).hexdigest()
    assert digest == "5a79a1a2ac8b01cc225760a3de4cd2507b64f161aa68b3c52f5c991064c6656a"
    assert hashlib.sha256(suite.norms.tobytes()).hexdigest().startswith("2904f0e53c49b7f7")
    assert suite.heavy_terms == (
        "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w14", "w8", "w12", "w26",
        "w23", "w9", "w16", "w17", "w33", "w35", "w10", "w11", "w15", "w20", "w21", "w24",
    )
