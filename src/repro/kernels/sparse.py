"""CSR sparse-matrix kernel for tf-idf dict vectors (document similarity).

The docsim pair function evaluates one cosine per Python call over
``dict[str, float]`` payloads — the slowest possible realization of the
paper's §1 cross-referencing workload.  This kernel converts a working
set's dict vectors into one CSR matrix (a per-working-set vocabulary maps
terms to columns), then evaluates the whole pair block with sparse matrix
algebra:

- **Gram path** (pair block covers most of the triangle, e.g. broadcast
  tasks): one ``A @ A.T`` product and a fancy-indexed gather — the cost
  of the block no longer depends on the number of Python-level pairs.
- **Gather path** (sparse blocks): row-gather the pair's left/right CSR
  slices and reduce with an element-wise multiply + row sum, so work
  stays proportional to the block's own nonzeros.

The conversion happens once per working set, so the kernel wins when the
pair count per working set is large relative to its member count (the
broadcast/block regime); with tiny design-scheme working sets the scalar
loop can be competitive — the kernel benchmark sweeps exactly this.

SciPy accelerates both paths when importable; otherwise the kernel falls
back to an equivalent dense-matrix realization (same vocabulary mapping,
same results) so the subsystem works on a NumPy-only install.
"""

from __future__ import annotations

import operator
from typing import Any, Mapping

import numpy as np

from .base import PairKernel

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
            return isinstance(term, str) and isinstance(weight, (int, float))
        return True  # the empty vector is a valid (zero) document

    def evaluate_block(
        self, payloads: Mapping[int, Any], pairs: np.ndarray
    ) -> list[Any]:
        if len(pairs) == 0:
            return []
        ids = np.unique(pairs)
        vectors = [payloads[int(eid)] for eid in ids]
        data, cols, indptr, num_terms = self._to_csr_arrays(vectors)
        rows_l = np.searchsorted(ids, pairs[:, 0])
        rows_r = np.searchsorted(ids, pairs[:, 1])
        k = len(ids)
        use_gram = len(pairs) >= self.GRAM_COVERAGE * (k * (k - 1) / 2)
        if _sparse is not None:
            matrix = _sparse.csr_matrix(
                (data, cols, indptr), shape=(k, num_terms), copy=False
            )
            if use_gram:
                gram = (matrix @ matrix.T).toarray()
                out = gram[rows_l, rows_r]
            else:
                left = matrix[rows_l]
                right = matrix[rows_r]
                out = np.asarray(left.multiply(right).sum(axis=1)).ravel()
        else:
            dense = np.zeros((k, num_terms))
            for row in range(k):
                lo, hi = indptr[row], indptr[row + 1]
                dense[row, cols[lo:hi]] = data[lo:hi]
            if use_gram:
                gram = dense @ dense.T
                out = gram[rows_l, rows_r]
            else:
                out = np.einsum("ij,ij->i", dense[rows_l], dense[rows_r])
        return out.tolist()

    @staticmethod
    def _to_csr_arrays(
        vectors: list[Mapping[str, float]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """One CSR conversion per working set, over its union vocabulary.

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
