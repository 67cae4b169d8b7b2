"""NumPy kernels for dense vector payloads (rows, points, centered rows).

The payloads are one ``(k, m)`` float64 matrix — a
:class:`~repro.kernels.base.WorkingSetStore`'s dense form (its root's rows,
stacked once), or a stack of the referenced rows of a plain store — and
the kernels read a pair relation off it in one of two forms:

- **gather** (:meth:`~repro.kernels.base.PairKernel.evaluate_block`): a
  relation given as ``(n, 2)`` pair rows — a pruned block, a broadcast
  label chunk, a quorum task — gathers the left/right rows with fancy
  indexing, a fixed-size chunk at a time, and reduces each chunk along
  the feature axis with one vectorized expression: ``n`` pair evaluations
  for the price of a few NumPy calls instead of ``n`` Python calls;
- **tile** (:meth:`_DenseVectorKernel.evaluate_tile`): a relation that is
  a tile of the pair matrix — a block scheme's cross product, a diagonal
  or design block's triangle
  (:meth:`~repro.core.scheme.DistributionScheme.pair_tiles`) — is one
  BLAS matrix product ``L @ R.T`` over two row slices of that matrix,
  with no gather at all.  The compute step chooses the form
  (:func:`repro.core.pairwise._compute_block`); the two agree within
  1e-9 relative, and each is exact where it matters — the tile keeps
  a clean zero for a duplicate point (:class:`DenseEuclideanKernel`).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .base import PairKernel, matrix_rows, stack_rows


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


#: bytes of one gathered operand per chunk: the left / right / difference
#: temporaries of a chunk stay cache-sized whatever the pair block's length
_CHUNK_BYTES = 2**20


class _DenseVectorKernel(PairKernel):
    """Shared stack/gather machinery for dense 1-D payloads.

    Each subclass adds ``evaluate_tile(left, right)``: the ``(|L|, |R|)``
    array of ``comp(left[a], right[b])`` over two row blocks, BLAS-shaped.
    """

    to_matrix = staticmethod(stack_rows)

    def supports(self, payload: Any) -> bool:
        return _is_dense_vector(payload)

    def evaluate_block(self, payloads: Mapping[int, Any], pairs: np.ndarray) -> np.ndarray:
        if len(pairs) == 0:
            return np.empty(0)
        matrix, rows, cols = matrix_rows(payloads, pairs, self.to_matrix)
        return self._evaluate(matrix, matrix, rows, cols)

    def _evaluate(
        self, left: np.ndarray, right: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """``_reduce`` over the pairs ``(left[rows], right[cols])``, chunk by chunk.

        Every ``_reduce`` works row by row, so cutting the pairs into
        chunks changes no result bit — only the size of the temporaries.
        """
        out = np.empty(len(rows), dtype=float)
        step = max(1, _CHUNK_BYTES // max(1, left.shape[1] * left.itemsize))
        for lo in range(0, len(rows), step):
            chunk = slice(lo, lo + step)
            out[chunk] = self._reduce(left[rows[chunk]], right[cols[chunk]])
        return out

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseDotKernel(_DenseVectorKernel):
    """Inner products of dense vectors: ``sum_k l[k] * r[k]`` per pair."""

    name = "dense-dot"

    def evaluate_tile(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return left @ right.T

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", left, right)


class DenseCosineKernel(_DenseVectorKernel):
    """Cosine similarity of dense vectors; zero-norm vectors score 0.0."""

    name = "dense-cosine"

    def evaluate_tile(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        norms = np.outer(np.linalg.norm(left, axis=1), np.linalg.norm(right, axis=1))
        return _cosine(left @ right.T, norms)

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=1)
        return _cosine(np.einsum("ij,ij->i", left, right), norms)


def _cosine(dots: np.ndarray, norms: np.ndarray) -> np.ndarray:
    out = np.zeros_like(dots)
    np.divide(dots, norms, out=out, where=norms > 0)
    return out


class DenseEuclideanKernel(_DenseVectorKernel):
    """L2 distances of dense vectors (the kNN/DBSCAN pair function).

    A tile takes the Gram form ``d² = ‖a‖² + ‖b‖² − 2a·b``, which cancels
    when ``a`` and ``b`` are close: two identical 512-dim rows read about
    1e-6 instead of 0.  So every entry whose Gram ``d²`` falls below
    ``κ·S``, ``S = ‖a‖² + ‖b‖²``, is recomputed in the difference form
    ``‖a − b‖`` the gather path uses — a duplicate point reads exactly 0.0.

    The cutoff, for rows of ``m`` features and unit roundoff ``u``: each of
    ``‖a‖²``, ``‖b‖²`` and ``a·b`` is an ``m``-term sum, off by at most
    ``γ_m = mu/(1 − mu)`` times the sum of its terms' magnitudes, and
    ``Σ|a_k b_k| ≤ ‖a‖‖b‖ ≤ S/2``, so the three sums put at most
    ``2γ_m·S`` into ``d²``; the addition and the subtraction add at most
    ``3u·S``.  The Gram ``d²`` is thus off by at most ``2(m + 2)u·S``, and
    ``d = √d²`` by half that relative to ``d²``: ``(m + 2)u·S / d²``.
    Keeping that within ``τ = 1e-10`` — a tenth of the 1e-9 relative
    tolerance the kernel parity tests hold every kernel to — needs
    ``d² ≥ (m + 2)u·S / τ``: ``κ = (m + 2)u / τ``, 5.7e-4 for ``m = 512``.
    A negative Gram ``d²`` is below the cutoff too, so the clamp at 0 only
    keeps the square root quiet: every clamped entry is recomputed.
    """

    name = "dense-euclidean"

    #: the relative error a Gram-form tile entry may carry (class docstring)
    TILE_REL_ERROR = 1e-10

    def evaluate_tile(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        scale = np.einsum("ij,ij->i", left, left)[:, None] + np.einsum("ij,ij->i", right, right)
        squared = scale - 2.0 * (left @ right.T)
        cutoff = (left.shape[1] + 2) * (np.finfo(float).eps / 2) / self.TILE_REL_ERROR
        rows, cols = np.nonzero(squared <= cutoff * scale)
        out = np.sqrt(np.maximum(squared, 0.0, out=squared), out=squared)
        out[rows, cols] = self._evaluate(left, right, rows, cols)
        return out

    def _reduce(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        diff = left - right
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class CovarianceKernel(DenseDotKernel):
    """Inner products of (centered) rows for the covariance workload.

    The same results as :class:`DenseDotKernel`, under the name the
    covariance application binds its pair function to: a tile is the
    ``L @ R.T`` of exactly that tile, a row block the gathered einsum.
    """

    name = "covariance"
