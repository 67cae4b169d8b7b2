"""Covariance matrices via pairwise inner products (paper §1's PCA example).

"The computation of the covariance matrix of a matrix A requires to
compute A × Aᵀ.  This multiplication is a pairwise inner product on all
rows of A."  Elements are the (centered) rows; the pair function is the dot
product; the off-diagonal covariance entries come straight out of the
pairwise result lists, the diagonal from each row's self product, and PCA
is an eigendecomposition on top.

Centering convention: each row is a variable and its *own* mean (over the
columns, i.e. the samples) is removed, matching ``np.cov`` of the
row-variable matrix with ``bias=False`` (the ``n−1`` divisor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..kernels import register_comp
from ..sketches import register_sketch


def row_inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Pair function: inner product of two (already centered) rows."""
    return float(np.dot(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


# With kernel="auto", pairwise batches row dot products through the
# covariance kernel (BLAS gram product on dense working sets).
register_comp(row_inner_product, "covariance")

# With pruning="sketch", thresholded covariance entries bound the dot
# product via the projection sketch (coords dot + residual Cauchy-Schwarz).
register_sketch(row_inner_product, "dense-dot")


def center_rows(matrix: np.ndarray) -> list[np.ndarray]:
    """Rows of A, each minus its own mean — the pairwise element payloads."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    centered = arr - arr.mean(axis=1, keepdims=True)
    return [centered[i] for i in range(centered.shape[0])]


def _covariance_from_products(products: np.ndarray, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Finish a ``(v, v)`` matrix of off-diagonal row products in place.

    The diagonal comes from each row's self product (one ``einsum``); the
    divisor is ``m − 1`` for m samples (columns).
    """
    v = len(rows)
    if v == 0:
        raise ValueError("need at least one row")
    m = len(rows[0])
    if m < 2:
        raise ValueError(f"need >= 2 samples per row for covariance, got {m}")
    stacked = np.asarray(rows, dtype=float)
    np.fill_diagonal(products, np.einsum("ij,ij->i", stacked, stacked))
    products /= m - 1
    return products


def assemble_covariance(
    pair_products: Mapping[tuple[int, int], float],
    rows: Sequence[np.ndarray],
) -> np.ndarray:
    """Covariance matrix from pairwise products plus per-row self products.

    ``pair_products`` maps 1-indexed ``(i, j)`` (i > j) to the centered
    rows' inner products; the divisor is ``m − 1`` for m samples (columns).
    """
    v = len(rows)
    keys = np.array(list(pair_products), dtype=np.int64).reshape(-1, 2)
    i, j = keys[:, 0], keys[:, 1]
    bad = ~((1 <= j) & (j < i) & (i <= v))
    if bad.any():
        raise ValueError(
            f"pair key {tuple(keys[bad][0].tolist())} out of range for v={v}"
        )
    cov = np.zeros((v, v), dtype=float)
    cov[i - 1, j - 1] = cov[j - 1, i - 1] = np.fromiter(
        pair_products.values(), dtype=float, count=len(keys)
    )
    return _covariance_from_products(cov, rows)


def covariance_reference(matrix: np.ndarray) -> np.ndarray:
    """Oracle: ``np.cov`` over row variables (the target of the assembly)."""
    return np.cov(np.asarray(matrix, dtype=float), bias=False)


def covariance_via_pairwise(
    matrix: np.ndarray,
    scheme,
    *,
    engine=None,
    kernel="auto",
) -> np.ndarray:
    """End-to-end §1 example: A·Aᵀ as a pairwise computation, assembled.

    Centers the rows, runs them through
    :func:`~repro.core.runner.auto_pairwise` under ``scheme`` — on the
    payload route :func:`~repro.core.chooser.route_payloads` prices for it
    — with the covariance kernel selected by default (batched BLAS inner
    products), and assembles the full matrix from the run's dense result
    view (:meth:`~repro.core.element.PairResults.dense`).  ``kernel=None``
    forces the scalar per-pair dot product.
    """
    from ..core.element import PairResults
    from ..core.runner import auto_pairwise

    rows = center_rows(matrix)
    merged, _choice = auto_pairwise(
        rows, row_inner_product, scheme=scheme, engine=engine, kernel=kernel
    )
    return _covariance_from_products(PairResults.of(merged).dense(), rows)


@dataclass(frozen=True)
class PCAResult:
    """Principal components of the row-variable covariance."""

    eigenvalues: np.ndarray  #: descending
    components: np.ndarray  #: (k, v) rows are eigenvectors

    @property
    def explained_variance_ratio(self) -> np.ndarray:
        total = float(self.eigenvalues.sum())
        if total <= 0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / total


def pca_from_covariance(cov: np.ndarray, k: int | None = None) -> PCAResult:
    """Top-k eigenpairs of a symmetric covariance matrix (descending).

    Eigenvector signs are fixed so each vector's largest-magnitude entry is
    positive, making results comparable across runs and libraries.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    values, vectors = np.linalg.eigh(cov)  # ascending for symmetric input
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    if k is not None:
        if not 1 <= k <= cov.shape[0]:
            raise ValueError(f"k must be in [1, {cov.shape[0]}], got {k}")
        values = values[:k]
        vectors = vectors[:, :k]
    # Deterministic sign convention.
    for col in range(vectors.shape[1]):
        pivot = np.argmax(np.abs(vectors[:, col]))
        if vectors[pivot, col] < 0:
            vectors[:, col] = -vectors[:, col]
    return PCAResult(eigenvalues=values, components=vectors.T)
