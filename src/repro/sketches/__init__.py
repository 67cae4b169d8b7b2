"""repro.sketches — per-element summaries for candidate-pair pruning.

The pairwise contract evaluates every pair a schema requires (all
v(v−1)/2 on a flat one) exactly once; for
threshold and top-k objectives most of those evaluations are provably
wasted.  This package builds cheap numpy-vectorized summaries of every
element once per run — a :class:`SketchSuite` — and a
:class:`PairPruner` that, given a block of candidate pair indices,
returns the surviving subset *before* the kernel runs.

Two summary families bound scores:

- **bucket norms** (sparse tf-idf vectors): per-bucket L2 norms with
  count-min-selected heavy-hitter terms in dedicated buckets; a sound
  upper bound on the sparse dot product by per-bucket Cauchy–Schwarz;
- **projection coordinates** (dense vectors): coordinates in a seeded
  orthonormal basis plus the residual norm outside it; sound two-sided
  bounds on euclidean distance and a sound upper bound on dot/cosine.

MinHash signatures (:func:`minhash_signatures`) estimate overlap and
bound nothing, so no pruner reads them.

Soundness contract: no pruner ever drops a pair whose true score could
pass the objective among the pairs the schema requires, so
``pruning="sketch"`` output is identical to ``pruning="off"`` on every
schema (DESIGN.md §3.1.7 has the argument).

Pair functions bind to a sketch kind via :func:`register_sketch`,
mirroring the kernel registry; the apps register their comps at import.
"""

from .base import SketchSuite, stable_term_hash, stable_term_hashes
from .builders import build_dense_sketch, build_sparse_cosine_sketch
from .countmin import CountMinSketch
from .minhash import minhash_signatures
from .pruners import (
    BOUND_GUARD,
    PRUNING_MODES,
    PairPruner,
    ThresholdPruner,
    TopKPruner,
    build_topk_taus,
)
from .registry import (
    DENSE_COSINE,
    DENSE_DOT,
    DENSE_EUCLIDEAN,
    DISTANCE_KINDS,
    SKETCH_KINDS,
    SPARSE_COSINE,
    build_sketches,
    register_sketch,
    sketch_kind_for_comp,
)

__all__ = [
    "BOUND_GUARD",
    "CountMinSketch",
    "DENSE_COSINE",
    "DENSE_DOT",
    "DENSE_EUCLIDEAN",
    "DISTANCE_KINDS",
    "PRUNING_MODES",
    "PairPruner",
    "SKETCH_KINDS",
    "SPARSE_COSINE",
    "SketchSuite",
    "ThresholdPruner",
    "TopKPruner",
    "build_dense_sketch",
    "build_sketches",
    "build_sparse_cosine_sketch",
    "build_topk_taus",
    "minhash_signatures",
    "register_sketch",
    "sketch_kind_for_comp",
    "stable_term_hash",
    "stable_term_hashes",
]
