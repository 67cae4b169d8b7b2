"""NumPy kernels for dense vector payloads (rows, points, centered rows).

All four kernels share one strategy: take the working set's payloads as a
``(k, m)`` matrix — the one a :class:`~repro.kernels.base.WorkingSetStore`
already holds, or a stack of the referenced rows of a plain store —
gather the left/right rows of the pairs with fancy indexing, a fixed-size
tile at a time, and reduce each tile along the feature axis with a single
vectorized expression — ``n`` pair evaluations for the price of a few
NumPy calls instead of ``n`` Python calls.

:class:`CovarianceKernel` additionally switches to one BLAS Gram-matrix
product (``X @ X.T``) when the pair block covers most of the working
set's triangle — the shape of the paper's §1 covariance workload, where
every working set evaluates *all* its pairs.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .base import PairKernel, WorkingSetStore, stack_rows


def _is_dense_vector(payload: Any) -> bool:
    """True for 1-D numeric array-likes (ndarray rows, lists of floats)."""
    if isinstance(payload, np.ndarray):
        return payload.ndim == 1 and payload.dtype.kind in "fiub"
    if isinstance(payload, (list, tuple)):
        try:
            arr = np.asarray(payload, dtype=float)
        except (TypeError, ValueError):
            return False
        return arr.ndim == 1
    return False


#: bytes of one gathered operand per tile: the left / right / difference
#: temporaries of a tile stay cache-sized whatever the pair block's length
_TILE_BYTES = 2**20


class _DenseVectorKernel(PairKernel):
    """Shared stack/gather machinery for dense 1-D payloads."""

    def supports(self, payload: Any) -> bool:
        return _is_dense_vector(payload)

    def evaluate_block(
        self, payloads: Mapping[int, Any], pairs: np.ndarray
    ) -> list[Any]:
        if len(pairs) == 0:
            return []
        if isinstance(payloads, WorkingSetStore):  # stacked once per working set
            ids, matrix = payloads.ids, payloads.matrix
        else:
            ids = np.unique(pairs)
            matrix = stack_rows(payloads[eid] for eid in ids.tolist())
        rows = np.searchsorted(ids, pairs[:, 0])
        cols = np.searchsorted(ids, pairs[:, 1])
        return self._evaluate(matrix, rows, cols).tolist()

    def _evaluate(self, matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``_reduce`` over the pairs ``(matrix[rows], matrix[cols])``, tile by tile.

        Every ``_reduce`` works row by row, so cutting the block into
        tiles changes no result bit — only the size of the temporaries.
        """
        out = np.empty(len(rows), dtype=float)
        step = max(1, _TILE_BYTES // max(1, matrix.shape[1] * matrix.itemsize))
        for lo in range(0, len(rows), step):
            tile = slice(lo, lo + step)
            out[tile] = self._reduce(matrix[rows[tile]], matrix[cols[tile]])
        return out

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseDotKernel(_DenseVectorKernel):
    """Inner products of dense vectors: ``sum_k l[k] * r[k]`` per pair."""

    name = "dense-dot"

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", left, right)


class DenseCosineKernel(_DenseVectorKernel):
    """Cosine similarity of dense vectors; zero-norm vectors score 0.0."""

    name = "dense-cosine"

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        dots = np.einsum("ij,ij->i", left, right)
        norms = np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=1)
        out = np.zeros_like(dots)
        np.divide(dots, norms, out=out, where=norms > 0)
        return out


class DenseEuclideanKernel(_DenseVectorKernel):
    """L2 distances of dense vectors (the kNN/DBSCAN pair function)."""

    name = "dense-euclidean"

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        diff = left - right
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class CovarianceKernel(_DenseVectorKernel):
    """Inner products of (centered) rows for the covariance workload.

    Same results as :class:`DenseDotKernel`; when the pair block covers at
    least a quarter of the working set's triangle the kernel computes one
    ``X @ X.T`` Gram matrix (a single BLAS call over the whole working
    set) and gathers pair entries from it, which beats the row-gather path
    for the all-pairs blocks the covariance application produces.
    """

    name = "covariance"

    #: Gram path when ``n_pairs >= GRAM_COVERAGE * k(k-1)/2``
    GRAM_COVERAGE = 0.25

    def _evaluate(self, matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        triangle = len(matrix) * (len(matrix) - 1) // 2
        if triangle == 0 or len(rows) < self.GRAM_COVERAGE * triangle:
            return super()._evaluate(matrix, rows, cols)
        return (matrix @ matrix.T)[rows, cols]

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", left, right)
