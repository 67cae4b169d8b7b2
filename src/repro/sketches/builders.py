"""Sketch-suite builders — one cheap vectorized pre-pass per run.

Both builders take the pairwise layer's ``{eid: payload}`` store (ids
1..v) and return a :class:`~repro.sketches.base.SketchSuite` whose
arrays are indexed by element id.  They run driver-side, once, before
job submission; the suite then rides the distributed cache so every
task — including retries — prunes against the same frozen summaries.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from .base import SketchSuite, stable_term_hash, stable_term_hashes
from .countmin import CountMinSketch
from .minhash import minhash_signatures


def _sorted_eids(payloads: Mapping[int, Any]) -> list[int]:
    eids = sorted(payloads)
    if not eids:
        raise ValueError("cannot sketch an empty payload store")
    if eids[0] < 1:
        raise ValueError(f"element ids must be >= 1, got {eids[0]}")
    return eids


def build_sparse_cosine_sketch(
    payloads: Mapping[int, Mapping[str, float]],
    *,
    num_buckets: int = 96,
    heavy_fraction: float = 0.05,
    max_heavy: int = 24,
    cm_width: int = 2048,
    cm_depth: int = 4,
    num_hashes: int = 32,
    seed: int = 0,
) -> SketchSuite:
    """Bucket-norm + MinHash suite for sparse term-weight vectors.

    One streaming pass feeds distinct terms through a count-min sketch;
    terms whose estimated document frequency reaches
    ``heavy_fraction · v`` get dedicated buckets (at most ``max_heavy``,
    always leaving ≥ 1 shared bucket), everything else hashes into the
    remaining buckets.  A second pass accumulates per-bucket squared
    weights.  Any bucket assignment keeps the dot-product bound sound;
    isolating heavy terms just stops the vocabulary head from inflating
    every shared bucket's norm.

    ``num_hashes=0`` skips the MinHash signatures (they are only
    consulted in estimate mode, so the exact-fallback path can skip the
    build cost).
    """
    if num_buckets < 2:
        raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
    if not 0.0 < heavy_fraction <= 1.0:
        raise ValueError(
            f"heavy_fraction must be in (0, 1], got {heavy_fraction}"
        )
    eids = _sorted_eids(payloads)
    v = len(eids)
    sample = payloads[eids[0]]
    if not isinstance(sample, Mapping):
        raise TypeError(
            "sparse-cosine sketches need Mapping[str, float] payloads, got "
            f"{type(sample).__name__}"
        )

    # Pass 1: count-min document frequencies → heavy-hitter terms.  Per-
    # document occurrences are pre-aggregated combiner-style (the sketch
    # is linear, so bulk-adding a term's df is state-identical to
    # streaming each document's increment) and the candidate set is the
    # terms whose final estimate clears the cut.
    df_sketch = CountMinSketch(width=cm_width, depth=cm_depth, seed=seed)
    df_counts: dict[str, int] = {}
    for eid in eids:
        for term in payloads[eid]:
            df_counts[term] = df_counts.get(term, 0) + 1
    terms = sorted(df_counts)
    df_sketch.add_bulk(terms, [df_counts[term] for term in terms])
    estimates = df_sketch.estimate_bulk(terms)
    cut = max(2, math.ceil(heavy_fraction * v))
    candidates = {
        term: int(estimate)
        for term, estimate in zip(terms, estimates)
        if estimate >= cut
    }
    budget = min(max_heavy, num_buckets - 1)
    heavy = tuple(
        sorted(candidates, key=lambda term: (-candidates[term], term))[:budget]
    )
    num_heavy = len(heavy)
    shared = num_buckets - num_heavy

    # One bucket (and one stable hash) per vocabulary term, then a single
    # scatter-add over every (document, term) incidence.
    term_hash = {term: stable_term_hash(term) for term in terms}
    bucket_of = {
        term: num_heavy + term_hash[term] % shared for term in terms
    }
    for index, term in enumerate(heavy):
        bucket_of[term] = index

    size = eids[-1] + 1
    squared = np.zeros((size, num_buckets), dtype=np.float64)
    row_idx: list[int] = []
    col_idx: list[int] = []
    weights: list[float] = []
    hash_rows: list[np.ndarray] = []
    for eid in eids:
        vector = payloads[eid]
        row_idx.extend([eid] * len(vector))
        col_idx.extend(bucket_of[term] for term in vector)
        weights.extend(vector.values())
        if num_hashes:
            hash_rows.append(
                np.fromiter(
                    (term_hash[term] for term in sorted(vector)),
                    dtype=np.uint64,
                    count=len(vector),
                )
            )
    np.add.at(
        squared,
        (np.asarray(row_idx), np.asarray(col_idx)),
        np.square(np.asarray(weights, dtype=np.float64)),
    )
    norms = np.sqrt(squared.sum(axis=1))

    signatures = None
    if num_hashes:
        packed = minhash_signatures(hash_rows, num_hashes, seed=seed)
        signatures = np.zeros((size, num_hashes), dtype=np.uint64)
        signatures[eids] = packed

    return SketchSuite(
        kind="sparse-cosine",
        v=v,
        seed=seed,
        norms=norms,
        bucket_norms=np.sqrt(squared),
        signatures=signatures,
        num_heavy_buckets=num_heavy,
        heavy_terms=heavy,
    )


def build_dense_sketch(
    payloads: Mapping[int, Any],
    kind: str,
    *,
    proj_dim: int = 12,
    seed: int = 0,
) -> SketchSuite:
    """Orthonormal-projection suite for dense vector payloads.

    Projects every payload onto a seeded orthonormal basis ``Q`` (QR of
    a Gaussian draw) and records the residual norm ``ρ = ‖x − QQᵀx‖``.
    Because the basis is orthonormal, ``‖P(a−b)‖ ≤ ‖a−b‖`` exactly and
    the residual cross-terms are Cauchy–Schwarz-bounded by ``ρ_i·ρ_j`` —
    the two facts behind every dense bound in
    :class:`~repro.sketches.base.SketchSuite`.  When ``proj_dim >= d``
    the projection is the identity and all bounds are exact.
    """
    if kind not in ("dense-cosine", "dense-dot", "dense-euclidean"):
        raise ValueError(f"unknown dense sketch kind {kind!r}")
    if proj_dim < 1:
        raise ValueError(f"proj_dim must be >= 1, got {proj_dim}")
    eids = _sorted_eids(payloads)
    rows = []
    dim = None
    for eid in eids:
        row = np.asarray(payloads[eid], dtype=np.float64).ravel()
        if dim is None:
            dim = row.shape[0]
        elif row.shape[0] != dim:
            raise ValueError(
                "dense sketches need equal-length vectors; element "
                f"{eid} has {row.shape[0]} components, expected {dim}"
            )
        rows.append(row)
    matrix = np.stack(rows)
    v = len(eids)
    m = min(proj_dim, dim)
    if m == dim:
        projected = matrix
        residual = np.zeros(v, dtype=np.float64)
    else:
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, m)))
        projected = matrix @ basis
        full_sq = np.einsum("ij,ij->i", matrix, matrix)
        proj_sq = np.einsum("ij,ij->i", projected, projected)
        residual = np.sqrt(np.maximum(full_sq - proj_sq, 0.0))

    size = eids[-1] + 1
    coords = np.zeros((size, m), dtype=np.float64)
    residuals = np.zeros(size, dtype=np.float64)
    norms = np.zeros(size, dtype=np.float64)
    coords[eids] = projected
    residuals[eids] = residual
    norms[eids] = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))

    return SketchSuite(
        kind=kind,
        v=v,
        seed=seed,
        norms=norms,
        coords=coords,
        residuals=residuals,
    )
