"""CSR sparse-matrix kernel for tf-idf dict vectors (document similarity).

The docsim pair function evaluates one cosine per Python call over
``dict[str, float]`` payloads — the slowest possible realization of the
paper's §1 cross-referencing workload.  This kernel's matrix form
(:meth:`CsrCosineKernel.to_matrix`) is one CSR matrix over the dict
vectors (a vocabulary maps terms to columns); a
:class:`~repro.kernels.base.WorkingSetStore` builds it once for its root —
on the cached plan the store of every participant, so once per process
per job, not once per working set.  The kernel then reads a pair relation
off that matrix with sparse algebra:

- **tile** (:meth:`CsrCosineKernel.evaluate_tile`): a block scheme's cross
  product or a triangle is one product ``A[L] @ A[R].T`` of two row
  blocks;
- **Gram** (a row block covering most of its triangle, e.g. a broadcast
  task): one product over the rows the block touches and a fancy-indexed
  gather;
- **gather** (sparse blocks, e.g. a pruner's survivors): :func:`row_dots`
  reads the pairs' rows straight off the CSR matrix's ``indptr`` /
  ``indices`` / ``data`` — one sort of the entries keyed by (pair,
  column) brings each shared term's two weights together — so work and
  memory stay proportional to the block's own nonzeros, with a fixed
  handful of NumPy calls and no SciPy object per block.  A block whose
  rows hold more than :attr:`CsrCosineKernel.ROW_DOTS_ENTRIES` stored
  entries takes SciPy's row gather and element-wise product instead,
  which is faster once the sort's temporaries outgrow the allocator's
  small-block pool.

SciPy backs the matrix form and the two products when importable;
otherwise the matrix form is the equivalent dense ``(k, terms)`` array
(same vocabulary mapping, same results; its gather is one ``einsum``) so
the subsystem works on a NumPy-only install.
"""

from __future__ import annotations

import numbers
import operator
from typing import Any, Mapping

import numpy as np

from .._util import distinct_sorted
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
    #: :func:`row_dots` while the pairs' rows hold at most this many stored
    #: entries, SciPy's row gather past it (where :func:`row_dots` is slower)
    ROW_DOTS_ENTRIES = 16 * 1024

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
        used = distinct_sorted(np.sort(np.concatenate((rows_l, rows_r))))
        k = len(used)
        if len(pairs) >= self.GRAM_COVERAGE * (k * (k - 1) / 2):
            block = matrix[used]
            gram = self.evaluate_tile(block, block)
            return gram[np.searchsorted(used, rows_l), np.searchsorted(used, rows_r)]
        if isinstance(matrix, np.ndarray):
            return np.einsum("ij,ij->i", matrix[rows_l], matrix[rows_r])
        indptr = matrix.indptr
        lengths = indptr[rows_l + 1] - indptr[rows_l] + indptr[rows_r + 1] - indptr[rows_r]
        if lengths.sum() <= self.ROW_DOTS_ENTRIES:
            return row_dots(indptr, matrix.indices, matrix.data, matrix.shape[1], rows_l, rows_r)
        return np.asarray(matrix[rows_l].multiply(matrix[rows_r]).sum(axis=1)).ravel()

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


def row_dots(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    width: int,
    rows_l: np.ndarray,
    rows_r: np.ndarray,
) -> np.ndarray:
    """``row a · row b`` of a CSR matrix for every pair of rows ``(a, b)``.

    Read straight off the matrix's arrays, in a fixed number of NumPy
    calls; ``width`` exceeds every column index (the matrix's column
    count).  Both ends' stored entries are laid out in one go and keyed
    ``pair · width + column``, each entry's position packed into the key's
    low bits; one sort puts the terms a pair shares side by side (a row
    stores a column once, so an equal neighbour is the other end's entry),
    and their products are summed per pair in column order.  Memory is
    linear in the entries of the rows the pairs touch, whatever ``width``
    is, and the matrix is read as stored.
    """
    n = len(rows_l)
    rows = np.concatenate((rows_l, rows_r))
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    position = np.arange(lengths.sum())
    bits = len(position).bit_length()
    if (n * width) << bits > np.iinfo(np.int64).max:
        raise ValueError(f"{n} pairs over {width} columns overflow row_dots' int64 keys")
    entries = np.repeat(starts - ends + lengths, lengths)
    entries += position
    keys = np.repeat(np.tile(np.arange(n) * width, 2), lengths)
    keys += indices[entries]
    keys <<= bits
    keys |= position
    order = np.sort(keys)  # an entry's position is its low bits
    keys = order >> bits
    shared = np.flatnonzero(keys[1:] == keys[:-1])
    mask = (1 << bits) - 1
    left, right = entries[order[shared] & mask], entries[order[shared + 1] & mask]
    dots = np.bincount(keys[shared] // width, weights=data[left] * data[right], minlength=n)
    return dots.astype(np.float64, copy=False)  # no shared term at all bincounts to int64
