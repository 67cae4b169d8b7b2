"""The similarity bound's tile form: one product per tile, the rows' survivors.

``SketchSuite.similarity_upper_tile(left, right)`` bounds every pair of a
:class:`~repro.core.scheme.Triangle` or :class:`~repro.core.scheme.Cross`
tile as one matrix; ``ThresholdPruner.keep_tile`` compares it with the
threshold, and the compute step reads the survivors off the mask in the
order :func:`~repro.core.scheme.tile_rows` gives the tile's rows.  Held
here, for sparse cosine, dense cosine and dense dot:

- the tile bound dominates every exact entry — empty vectors, zero norms
  and pairs whose score ties the threshold included (a tie is kept);
- tile pruning keeps exactly the rows ``keep_mask`` keeps on the tiles'
  rows, in the same order, with the same ``PAIRS_PRUNED``,
  ``PRUNE_FALSE_POSITIVES`` and ``EVALUATIONS``;
- a pruned threshold join returns the brute-force key set on the block,
  design and bipartite-block schemes, whose working sets are tiles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.docsim import build_tfidf, cosine_similarity
from repro.core.bipartite import BipartiteBlockScheme
from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.pairwise import (
    EVALUATIONS,
    PAIRS_PRUNED,
    PAIRWISE_GROUP,
    PRUNE_FALSE_POSITIVES,
    PairwiseComputation,
    _apply_pruner,
    _compute_block,
)
from repro.core.scheme import Cross, Rows, Triangle, tile_rows
from repro.kernels import WorkingSetStore
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Context
from repro.sketches import (
    BOUND_GUARD,
    ThresholdPruner,
    build_dense_sketch,
    build_sparse_cosine_sketch,
)
from repro.workloads.generator import make_documents

KINDS = ("sparse-cosine", "dense-cosine", "dense-dot")
TERMS = [f"t{index}" for index in range(6)]


def exact(kind, a, b):
    """The score the bound must dominate."""
    if kind == "sparse-cosine":
        return cosine_similarity(a, b)
    dot = float(np.dot(a, b))
    if kind == "dense-dot":
        return dot
    norms = float(np.linalg.norm(a) * np.linalg.norm(b))
    return dot / norms if norms > 0 else 0.0


def sparse_vector(weights):
    """An L2-normalized term vector; all-zero weights give the empty document."""
    vector = {term: weight for term, weight in zip(TERMS, weights) if weight > 0}
    norm = np.sqrt(sum(weight * weight for weight in vector.values()))
    return {term: weight / norm for term, weight in vector.items()}


@st.composite
def tiled_payloads(draw):
    """A kind, ``{eid: payload}`` over ids 1..v, and a triangle plus a cross tile of them.

    Small integer weights make duplicate and orthogonal payloads common, so
    exact scores repeat and meet the threshold; zero rows are empty
    documents or zero-norm vectors.
    """
    kind = draw(st.sampled_from(KINDS))
    v = draw(st.integers(2, 9))
    weights = st.lists(st.integers(0, 2), min_size=len(TERMS), max_size=len(TERMS))
    rows = [np.asarray(draw(weights), dtype=float) for _ in range(v)]
    if kind == "sparse-cosine":
        payloads = {eid: sparse_vector(row) for eid, row in enumerate(rows, 1)}
    else:
        payloads = dict(enumerate(rows, 1))
    split = draw(st.integers(1, v - 1))
    ids = list(range(1, v + 1))
    return kind, payloads, Triangle(ids), Cross(ids[split:], ids[:split])


def suite_of(kind, payloads):
    if kind == "sparse-cosine":
        return build_sparse_cosine_sketch(payloads, num_buckets=4, max_heavy=1)
    return build_dense_sketch(payloads, kind, proj_dim=2)


def context_for(kind, suite, threshold):
    """A compute task's context: the kind's kernel by name (no ``comp`` is read)."""
    config = {
        "pruner": ThresholdPruner(threshold, keep_below=False),
        "comp": None,
        "kernel": "csr-cosine" if kind == "sparse-cosine" else kind,
        "symmetric": True,
    }
    return Context(Counters(), cache={"sketches": suite}, config=config)


@settings(max_examples=60, deadline=None)
@given(tiled_payloads(), st.data())
def test_tile_bound_dominates_every_exact_entry(case, data):
    kind, payloads, triangle, cross = case
    suite = suite_of(kind, payloads)
    for left, right in ((triangle.points, triangle.points), (cross.high, cross.low)):
        left, right = np.asarray(left), np.asarray(right)
        bound = suite.similarity_upper_tile(left, right)
        truth = np.array([[exact(kind, payloads[i], payloads[j]) for j in right] for i in left])
        assert bound.shape == truth.shape
        assert (bound >= truth - BOUND_GUARD * (1.0 + np.abs(truth))).all()
        # A score that ties the threshold is kept: the aggregator decides it.
        threshold = data.draw(st.sampled_from(sorted(set(truth.ravel().tolist()))))
        keep = ThresholdPruner(threshold, keep_below=False).keep_tile(suite, left, right)
        assert keep[truth >= threshold].all()


@settings(max_examples=60, deadline=None)
@given(tiled_payloads(), st.floats(-0.5, 1.5))
def test_tile_survivors_are_the_rows_survivors(case, threshold):
    """The tile path against the same tiles walked as rows: same columns, same counters."""
    kind, payloads, triangle, cross = case
    suite = suite_of(kind, payloads)
    for tiles in ([triangle], [cross], [cross, Triangle(cross.low)]):
        rows = tile_rows(tiles)
        pruner = ThresholdPruner(threshold, keep_below=False)
        want = rows[pruner.keep_mask(suite, rows)]
        outcomes = []
        for walked in (tiles, [Rows(rows)]):
            context = context_for(kind, suite, threshold)
            store = WorkingSetStore(np.arange(1, len(payloads) + 1), payloads.values())
            owners, partners, results = _compute_block(walked, store, context)
            counted = [
                context.counters.get(PAIRWISE_GROUP, name)
                for name in (EVALUATIONS, PAIRS_PRUNED, PRUNE_FALSE_POSITIVES)
            ]
            outcomes.append((owners.tolist(), partners.tolist(), results.tolist(), counted))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3][:2] == [len(want), len(rows) - len(want)]
        survivors = _apply_pruner(tiles, context_for(kind, suite, threshold))
        assert survivors.shape == want.shape and np.array_equal(survivors, want)


def documents(v, seed):
    return build_tfidf(
        make_documents(v, vocabulary=60, length=20, num_topics=3, topic_strength=0.9, seed=seed)
    )


@pytest.mark.parametrize(
    "scheme",
    [BlockScheme(24, 4), DesignScheme(24), BipartiteBlockScheme(14, 10, 3, 2)],
    ids=["block", "design", "bipartite-block"],
)
@pytest.mark.parametrize("preset", ["run", "run_cached"])
def test_pruned_threshold_join_is_brute_force(scheme, preset):
    docs = documents(scheme.v, seed=4)
    threshold = 0.3
    runner = PairwiseComputation(
        scheme, cosine_similarity, kernel="auto", threshold=threshold, pruning="sketch"
    )
    got = getattr(runner, preset)(docs).pairs()
    universe = scheme.required_tiles()
    pairs = (
        [(i, j) for i in range(2, scheme.v + 1) for j in range(1, i)]
        if universe is None
        else tile_rows(universe).tolist()
    )
    want = {
        (i, j) for i, j in pairs if cosine_similarity(docs[i - 1], docs[j - 1]) > threshold
    }
    assert want and set(got) == want
