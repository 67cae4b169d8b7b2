"""NumPy kernels for dense vector payloads (rows, points, centered rows).

All four kernels share one strategy: stack the block's referenced payloads
into a ``(k, m)`` matrix once per working set, gather the left/right rows
of every pair with fancy indexing, and reduce along the feature axis with
a single vectorized expression — ``n`` pair evaluations for the price of
one NumPy call instead of ``n`` Python calls.

:class:`CovarianceKernel` additionally switches to one BLAS Gram-matrix
product (``X @ X.T``) when the pair block covers most of the working
set's triangle — the shape of the paper's §1 covariance workload, where
every working set evaluates *all* its pairs.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .base import PairKernel


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


class _DenseVectorKernel(PairKernel):
    """Shared stack/gather machinery for dense 1-D payloads."""

    def supports(self, payload: Any) -> bool:
        return _is_dense_vector(payload)

    def _gather(
        self, payloads: Mapping[int, Any], pairs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Left/right row matrices for the pair block (one stack per call).

        ``np.asarray(..., dtype=float)`` on a float64 payload row is a
        zero-copy pass-through — rows living in a shared-memory segment
        or an mmapped spill file are read (never copied) straight from
        the shared buffer; the stack into the ``(k, m)`` working matrix
        is the block's single gather copy.
        """
        ids = np.unique(pairs)
        matrix = np.stack(
            [np.asarray(payloads[int(eid)], dtype=float) for eid in ids]
        )
        left = matrix[np.searchsorted(ids, pairs[:, 0])]
        right = matrix[np.searchsorted(ids, pairs[:, 1])]
        return left, right

    def evaluate_block(
        self, payloads: Mapping[int, Any], pairs: np.ndarray
    ) -> list[Any]:
        if len(pairs) == 0:
            return []
        left, right = self._gather(payloads, pairs)
        return self._reduce(left, right).tolist()

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

    def evaluate_block(
        self, payloads: Mapping[int, Any], pairs: np.ndarray
    ) -> list[Any]:
        if len(pairs) == 0:
            return []
        ids = np.unique(pairs)
        k = len(ids)
        triangle = k * (k - 1) // 2
        if triangle == 0 or len(pairs) < self.GRAM_COVERAGE * triangle:
            left, right = self._gather(payloads, pairs)
            return self._reduce(left, right).tolist()
        matrix = np.stack(
            [np.asarray(payloads[int(eid)], dtype=float) for eid in ids]
        )
        gram = matrix @ matrix.T
        rows = np.searchsorted(ids, pairs[:, 0])
        cols = np.searchsorted(ids, pairs[:, 1])
        return gram[rows, cols].tolist()

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", left, right)
