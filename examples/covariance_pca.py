#!/usr/bin/env python
"""Covariance matrix and PCA via pairwise row inner products
(paper §1, example 4: "the computation of the covariance matrix of a
matrix A requires to compute A × Aᵀ ... a pairwise inner product on all
rows of A").

Builds a low-rank matrix, computes the row covariance through the
pairwise pipeline (block scheme), assembles the matrix, runs PCA, and
verifies everything against numpy.

Run:  python examples/covariance_pca.py
"""

import numpy as np

from repro import BlockScheme, PairwiseComputation
from repro.apps import (
    assemble_covariance,
    center_rows,
    covariance_reference,
    pca_from_covariance,
    row_inner_product,
)
from repro.workloads import make_matrix

ROWS = 30       # variables (the pairwise elements)
COLS = 200      # samples per variable
TRUE_RANK = 4


def main() -> None:
    A = make_matrix(ROWS, COLS, rank=TRUE_RANK, seed=3)
    rows = center_rows(A)

    scheme = BlockScheme(ROWS, h=5)
    computation = PairwiseComputation(scheme, row_inner_product)
    merged = computation.run(rows)
    products = merged.pairs()

    cov = assemble_covariance(products, rows)
    expected = covariance_reference(A)
    assert np.allclose(cov, expected), "pairwise covariance must equal np.cov"

    pca = pca_from_covariance(cov)
    significant = int((pca.eigenvalues > 1e-8).sum())

    print(f"A is {ROWS}×{COLS} with planted rank {TRUE_RANK}; "
          f"pairwise inner products under {scheme.describe()}")
    print(f"  covariance matches np.cov: max |Δ| = "
          f"{np.abs(cov - expected).max():.2e}")
    print(f"  significant eigenvalues   : {significant} (expected {TRUE_RANK})")
    ratios = pca.explained_variance_ratio[:TRUE_RANK]
    print("  explained variance (top-4):",
          "  ".join(f"{r:.1%}" for r in ratios))
    assert significant == TRUE_RANK

    projected = pca.components[:TRUE_RANK] @ (A - A.mean(axis=1, keepdims=True))
    print(f"  projection to {TRUE_RANK} components: shape {projected.shape} "
          f"(lossless for a rank-{TRUE_RANK} signal)")


if __name__ == "__main__":
    main()
