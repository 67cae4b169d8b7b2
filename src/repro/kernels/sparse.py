"""CSR sparse-matrix kernel for tf-idf dict vectors (document similarity).

The docsim pair function evaluates one cosine per Python call over
``dict[str, float]`` payloads — the slowest possible realization of the
paper's §1 cross-referencing workload.  This kernel's matrix form
(:meth:`CsrCosineKernel.to_matrix`) is one CSR matrix over the dict
vectors (a vocabulary maps terms to columns); a
:class:`~repro.kernels.base.WorkingSetStore` builds it once for its root —
on the cached plans the store of every participant, so once per process
per job, not once per working set.  The kernel then reads a pair relation
off that matrix with sparse algebra:

- **tile** (:meth:`CsrCosineKernel.evaluate_tile`): a block scheme's cross
  product or a triangle is one product ``A[L] @ A[R].T`` of two row
  blocks;
- **Gram** (a row block covering most of its triangle, e.g. a broadcast
  task): one product over the rows the block touches and a fancy-indexed
  gather;
- **gather** (sparse blocks, e.g. a pruner's survivors): the pairs'
  left/right rows multiplied element-wise and summed per row, so work
  stays proportional to the block's own nonzeros.

SciPy accelerates all three when importable; otherwise the matrix form is
the equivalent dense ``(k, terms)`` array (same vocabulary mapping, same
results) so the subsystem works on a NumPy-only install.
"""

from __future__ import annotations

import numbers
import operator
from typing import Any, Mapping

import numpy as np

from .base import PairKernel, matrix_rows

try:  # gated: scipy is optional, the dense fallback below covers its absence
    from scipy import sparse as _sparse
except Exception:  # pragma: no cover - exercised only on scipy-less installs
    _sparse = None


class CsrCosineKernel(PairKernel):
    """Cosine (dot product) of L2-normalized sparse dict vectors, batched.

    Payloads are ``{term: weight}`` mappings as produced by
    :func:`repro.apps.docsim.build_tfidf`; because those vectors are
    normalized, the pairwise dot products *are* the cosines — identical
    semantics to :func:`repro.apps.docsim.cosine_similarity`, within
    float tolerance (different summation order).
    """

    name = "csr-cosine"

    #: Gram path when ``n_pairs >= GRAM_COVERAGE * k(k-1)/2``
    GRAM_COVERAGE = 0.25

    def supports(self, payload: Any) -> bool:
        if not isinstance(payload, Mapping):
            return False
        for term, weight in payload.items():
            real = isinstance(weight, numbers.Real) and not isinstance(weight, bool)
            return isinstance(term, str) and real
        return True  # the empty vector is a valid (zero) document

    @staticmethod
    def to_matrix(vectors: list[Mapping[str, float]]) -> Any:
        """The ``(k, terms)`` CSR matrix of ``vectors`` (dense without SciPy)."""
        data, cols, indptr, num_terms = CsrCosineKernel._to_csr_arrays(vectors)
        shape = (len(vectors), num_terms)
        if _sparse is not None:
            return _sparse.csr_matrix((data, cols, indptr), shape=shape, copy=False)
        dense = np.zeros(shape)
        dense[np.repeat(np.arange(len(vectors)), np.diff(indptr)), cols] = data
        return dense

    def evaluate_tile(self, left: Any, right: Any) -> np.ndarray:
        product = left @ right.T
        return product if isinstance(product, np.ndarray) else product.toarray()

    def evaluate_block(self, payloads: Mapping[int, Any], pairs: np.ndarray) -> np.ndarray:
        if len(pairs) == 0:
            return np.empty(0)
        matrix, rows_l, rows_r = matrix_rows(payloads, pairs, self.to_matrix)
        used = np.unique(np.concatenate((rows_l, rows_r)))
        k = len(used)
        if len(pairs) >= self.GRAM_COVERAGE * (k * (k - 1) / 2):
            block = matrix[used]
            gram = self.evaluate_tile(block, block)
            return gram[np.searchsorted(used, rows_l), np.searchsorted(used, rows_r)]
        left, right = matrix[rows_l], matrix[rows_r]
        if isinstance(left, np.ndarray):
            return np.einsum("ij,ij->i", left, right)
        return np.asarray(left.multiply(right).sum(axis=1)).ravel()

    @staticmethod
    def _to_csr_arrays(
        vectors: list[Mapping[str, float]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The CSR arrays of ``vectors``, over their union vocabulary.

        Term→column mapping is built with C-speed set/dict operations and
        the per-vector column lookup with a single ``itemgetter`` call —
        the conversion is the kernel's fixed cost, so it must stay far
        below one scalar pass over the same dicts.
        """
        lengths = [len(vector) for vector in vectors]
        vocabulary = dict(
            zip(
                set().union(*[vector.keys() for vector in vectors])
                if vectors
                else (),
                range(sum(lengths)),
            )
        )
        # int32 indices whenever they fit: scipy's csr_matrix(copy=False)
        # keeps them as-is, where int64 would be downcast-copied.
        index_dtype = np.int32 if sum(lengths) < 2**31 else np.int64
        indptr = np.zeros(len(vectors) + 1, dtype=index_dtype)
        np.cumsum(lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        cols = np.empty(nnz, dtype=index_dtype)
        data = np.empty(nnz, dtype=np.float64)
        position = 0
        for vector, length in zip(vectors, lengths):
            if length == 0:
                continue
            if length == 1:
                ((term, weight),) = vector.items()
                cols[position] = vocabulary[term]
                data[position] = weight
            else:
                cols[position : position + length] = operator.itemgetter(
                    *vector.keys()
                )(vocabulary)
                data[position : position + length] = np.fromiter(
                    vector.values(), np.float64, length
                )
            position += length
        return data, cols, indptr, len(vocabulary)
