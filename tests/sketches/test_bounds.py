"""Bound-soundness properties of the sketch summaries (DESIGN.md §3.1.7).

Every pruning decision rests on three inequalities, each checked here
against brute force over seeded random payloads:

- sparse:  ``similarity_upper(i, j) >= cosine(i, j)``;
- dense:   ``distance_lower <= distance <= distance_upper`` and
  ``similarity_upper >= dot / cosine``;
- top-k:   ``taus[i] >=`` element i's true k-th smallest distance.

Plus the component guarantees they compose from: count-min never
underestimates, MinHash is deterministic, and the whole suite pickles
(it rides the distributed cache).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.dbscan import euclidean_distance
from repro.apps.docsim import build_tfidf, cosine_similarity
from repro.sketches import (
    BOUND_GUARD,
    CountMinSketch,
    SketchSuite,
    ThresholdPruner,
    TopKPruner,
    build_dense_sketch,
    build_sketches,
    build_sparse_cosine_sketch,
    build_topk_taus,
    minhash_signatures,
    register_sketch,
    sketch_kind_for_comp,
    stable_term_hash,
    stable_term_hashes,
)
from repro.workloads.generator import make_documents, make_vectors


def all_pairs(v: int) -> np.ndarray:
    return np.asarray(
        [(i, j) for i in range(2, v + 1) for j in range(1, i)], dtype=np.int64
    )


def sparse_payloads(v: int, seed: int = 7) -> dict:
    docs = make_documents(
        v, vocabulary=120, length=30, num_topics=6, topic_strength=0.8, seed=seed
    )
    vectors = build_tfidf(docs)
    if v > 2:
        vectors[2] = {}  # empty document exercises the zero-norm guard
    return {i + 1: vectors[i] for i in range(v)}


def dense_payloads(v: int, dim: int = 16, seed: int = 3) -> dict:
    rows = make_vectors(v, dim, seed=seed)
    if v > 4:
        rows[4] = np.zeros(dim)  # zero vector exercises the cosine guard
    return {i + 1: rows[i] for i in range(v)}


class TestSparseBounds:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_upper_bound_dominates_cosine(self, seed):
        payloads = sparse_payloads(40, seed=seed)
        suite = build_sparse_cosine_sketch(payloads, seed=seed)
        block = all_pairs(40)
        upper = suite.similarity_upper(block)
        true = np.asarray(
            [cosine_similarity(payloads[i], payloads[j]) for i, j in block]
        )
        assert (upper >= true - BOUND_GUARD).all()

    def test_fewer_buckets_still_sound(self):
        # Soundness must not depend on the bucket count — only tightness does.
        payloads = sparse_payloads(30)
        block = all_pairs(30)
        true = np.asarray(
            [cosine_similarity(payloads[i], payloads[j]) for i, j in block]
        )
        for num_buckets in (2, 8, 48):
            suite = build_sparse_cosine_sketch(payloads, num_buckets=num_buckets)
            assert (suite.similarity_upper(block) >= true - BOUND_GUARD).all()

    def test_heavy_terms_capped(self):
        payloads = sparse_payloads(40)
        suite = build_sparse_cosine_sketch(payloads, max_heavy=3)
        assert suite.num_heavy_buckets <= 3
        assert len(suite.heavy_terms) == suite.num_heavy_buckets

    def test_sound_mode_skips_signatures(self):
        payloads = sparse_payloads(20)
        suite = build_sparse_cosine_sketch(payloads, num_hashes=0)
        assert suite.signatures is None


class TestDenseBounds:
    @pytest.mark.parametrize("kind", ["dense-euclidean", "dense-dot", "dense-cosine"])
    @pytest.mark.parametrize("proj_dim", [4, 12])
    def test_bounds_bracket_truth(self, kind, proj_dim):
        payloads = dense_payloads(30)
        suite = build_dense_sketch(payloads, kind, proj_dim=proj_dim)
        block = all_pairs(30)
        if kind == "dense-euclidean":
            true = np.asarray(
                [euclidean_distance(payloads[i], payloads[j]) for i, j in block]
            )
            assert (suite.distance_lower(block) <= true + BOUND_GUARD).all()
            assert (suite.distance_upper(block) >= true - BOUND_GUARD).all()
        else:
            if kind == "dense-dot":
                true = np.asarray(
                    [float(np.dot(payloads[i], payloads[j])) for i, j in block]
                )
            else:
                def cos(a, b):
                    norms = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
                    return float(np.dot(a, b)) / norms if norms > 0 else 0.0

                true = np.asarray([cos(payloads[i], payloads[j]) for i, j in block])
            assert (suite.similarity_upper(block) >= true - BOUND_GUARD).all()

    def test_full_rank_projection_is_exact(self):
        # proj_dim >= dim: the projection is the identity, residuals vanish,
        # and the two-sided distance bounds collapse onto the true value.
        payloads = dense_payloads(20, dim=6)
        suite = build_dense_sketch(payloads, "dense-euclidean", proj_dim=6)
        block = all_pairs(20)
        true = np.asarray(
            [euclidean_distance(payloads[i], payloads[j]) for i, j in block]
        )
        np.testing.assert_allclose(suite.distance_lower(block), true, atol=1e-9)
        np.testing.assert_allclose(suite.distance_upper(block), true, atol=1e-9)


class TestTopKTaus:
    def test_taus_cap_true_kth_distance(self):
        v, k = 30, 4
        payloads = dense_payloads(v)
        suite = build_dense_sketch(payloads, "dense-euclidean", proj_dim=6)
        taus = build_topk_taus(suite, k)
        for i in range(1, v + 1):
            distances = sorted(
                euclidean_distance(payloads[i], payloads[j])
                for j in range(1, v + 1)
                if j != i
            )
            assert taus[i] >= distances[k - 1] - BOUND_GUARD

    def test_pruner_keeps_all_true_neighbors(self):
        v, k = 30, 4
        payloads = dense_payloads(v)
        suite = build_dense_sketch(payloads, "dense-euclidean", proj_dim=6)
        pruner = TopKPruner(k, build_topk_taus(suite, k))
        block = all_pairs(v)
        keep = pruner.keep_mask(suite, block)
        kept = {tuple(pair) for pair, flag in zip(block.tolist(), keep) if flag}
        for i in range(1, v + 1):
            ranked = sorted(
                (euclidean_distance(payloads[i], payloads[j]), j)
                for j in range(1, v + 1)
                if j != i
            )
            for _dist, j in ranked[:k]:
                pair = (max(i, j), min(i, j))
                assert pair in kept, f"true neighbor pair {pair} was pruned"

    def test_validation(self):
        payloads = dense_payloads(10)
        suite = build_dense_sketch(payloads, "dense-euclidean")
        with pytest.raises(ValueError):
            build_topk_taus(suite, 0)
        with pytest.raises(ValueError):
            build_topk_taus(suite, 10)  # k must be <= v - 1
        sparse = build_sparse_cosine_sketch(sparse_payloads(10))
        with pytest.raises(ValueError):
            build_topk_taus(sparse, 2)


class TestThresholdPruner:
    def test_sound_mode_never_drops_qualifying_pairs(self):
        payloads = sparse_payloads(40)
        suite = build_sparse_cosine_sketch(payloads)
        block = all_pairs(40)
        for threshold in (0.1, 0.3, 0.6):
            pruner = ThresholdPruner(threshold, keep_below=False)
            assert pruner.sound
            keep = pruner.keep_mask(suite, block)
            for (i, j), flag in zip(block.tolist(), keep):
                if cosine_similarity(payloads[i], payloads[j]) > threshold:
                    assert flag, f"qualifying pair ({i}, {j}) pruned at {threshold}"

    def test_estimate_mode_is_marked_unsound(self):
        payloads = sparse_payloads(20)
        suite = build_sparse_cosine_sketch(payloads)
        pruner = ThresholdPruner(0.3, keep_below=False, estimate=True)
        assert not pruner.sound
        block = all_pairs(20)
        sound = ThresholdPruner(0.3, keep_below=False).keep_mask(suite, block)
        estimated = pruner.keep_mask(suite, block)
        # Estimate mode only ever prunes *more*.
        assert (estimated <= sound).all()

    def test_distance_orientation(self):
        payloads = dense_payloads(20)
        suite = build_dense_sketch(payloads, "dense-euclidean", proj_dim=5)
        block = all_pairs(20)
        pruner = ThresholdPruner(2.0, keep_below=True)
        keep = pruner.keep_mask(suite, block)
        for (i, j), flag in zip(block.tolist(), keep):
            if euclidean_distance(payloads[i], payloads[j]) < 2.0:
                assert flag


class TestCountMin:
    def test_never_underestimates(self):
        sketch = CountMinSketch(width=64, depth=4, seed=1)
        rng = np.random.default_rng(0)
        truth: dict[str, int] = {}
        for _ in range(500):
            key = f"k{int(rng.integers(0, 200))}"
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_add_bulk_matches_streaming(self):
        streaming = CountMinSketch(width=128, depth=3, seed=2)
        bulk = CountMinSketch(width=128, depth=3, seed=2)
        counts = {f"t{i}": (i % 5) + 1 for i in range(50)}
        for key, count in counts.items():
            for _ in range(count):
                streaming.add(key)
        keys = sorted(counts)
        bulk.add_bulk(keys, [counts[key] for key in keys])
        np.testing.assert_array_equal(streaming.table, bulk.table)
        np.testing.assert_array_equal(
            streaming.table.min(axis=0), bulk.table.min(axis=0)
        )

    def test_estimate_bulk_matches_scalar(self):
        sketch = CountMinSketch(width=64, depth=4)
        keys = [f"w{i}" for i in range(30)]
        sketch.add_bulk(keys, list(range(1, 31)))
        bulk = sketch.estimate_bulk(keys)
        assert bulk.tolist() == [sketch.estimate(key) for key in keys]

    def test_merge_is_linear(self):
        a = CountMinSketch(width=32, depth=2, seed=3)
        b = CountMinSketch(width=32, depth=2, seed=3)
        a.add("x", 5)
        b.add("x", 7)
        b.add("y", 1)
        a.merge(b)
        assert a.estimate("x") >= 12
        with pytest.raises(ValueError):
            a.merge(CountMinSketch(width=16, depth=2, seed=3))

    def test_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(depth=9)
        sketch = CountMinSketch()
        with pytest.raises(ValueError):
            sketch.add_bulk(["a"], [1, 2])


class TestMinHashAndHashing:
    def test_stable_hash_is_process_independent(self):
        # blake2b-derived, never Python hash(): the same term must map to
        # the same value in every interpreter (retries, other workers).
        assert stable_term_hash("w1") == stable_term_hash("w1")
        assert stable_term_hash("w1") != stable_term_hash("w1", salt=1)
        row = stable_term_hashes(["a", "b"])
        assert row.dtype == np.uint64
        assert row[0] == stable_term_hash("a")

    def test_signatures_deterministic(self):
        rows = [stable_term_hashes([f"w{i}" for i in range(j + 1)]) for j in range(5)]
        first = minhash_signatures(rows, 16, seed=9)
        second = minhash_signatures(rows, 16, seed=9)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, minhash_signatures(rows, 16, seed=10))

    def test_empty_row_gets_max_signature(self):
        rows = [stable_term_hashes([]), stable_term_hashes(["a"])]
        signatures = minhash_signatures(rows, 8)
        assert (signatures[0] == np.iinfo(np.uint64).max).all()

    def test_identical_sets_estimate_one(self):
        payloads = {1: {"a": 1.0, "b": 2.0}, 2: {"a": 3.0, "b": 0.5}, 3: {"c": 1.0}}
        suite = build_sparse_cosine_sketch(payloads, num_hashes=32)
        block = np.asarray([(2, 1), (3, 1)], dtype=np.int64)
        estimates = suite.estimated_jaccard(block)
        assert estimates[0] == 1.0  # same term set
        assert estimates[1] == 0.0  # disjoint term sets


class TestSuitePlumbing:
    def test_suite_pickles(self):
        suite = build_sparse_cosine_sketch(sparse_payloads(15))
        clone = pickle.loads(pickle.dumps(suite))
        np.testing.assert_array_equal(clone.bucket_norms, suite.bucket_norms)
        assert clone.kind == suite.kind
        assert clone.nbytes == suite.nbytes > 0

    def test_pruners_pickle(self):
        payloads = dense_payloads(12)
        suite = build_dense_sketch(payloads, "dense-euclidean")
        for pruner in (
            ThresholdPruner(0.5, keep_below=True),
            TopKPruner(2, build_topk_taus(suite, 2)),
        ):
            clone = pickle.loads(pickle.dumps(pruner))
            block = all_pairs(12)
            np.testing.assert_array_equal(
                clone.keep_mask(suite, block), pruner.keep_mask(suite, block)
            )

    def test_registry_dispatch(self):
        assert sketch_kind_for_comp(cosine_similarity) == "sparse-cosine"
        assert sketch_kind_for_comp(euclidean_distance) == "dense-euclidean"
        assert sketch_kind_for_comp(lambda a, b: 0.0) is None
        with pytest.raises(ValueError):
            register_sketch(cosine_similarity, "no-such-kind")
        with pytest.raises(ValueError):
            build_sketches({1: {"a": 1.0}}, "no-such-kind")

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            build_sparse_cosine_sketch({})
        with pytest.raises(ValueError):
            build_sparse_cosine_sketch({0: {"a": 1.0}})
        with pytest.raises(TypeError):
            build_sparse_cosine_sketch({1: np.zeros(3)})
        with pytest.raises(ValueError):
            build_sparse_cosine_sketch({1: {"a": 1.0}}, num_buckets=1)
        with pytest.raises(ValueError):
            build_dense_sketch({1: np.zeros(3)}, "no-such-kind")
        with pytest.raises(ValueError):
            build_dense_sketch({1: np.zeros(3), 2: np.zeros(4)}, "dense-euclidean")

    def test_describe_mentions_kind(self):
        suite = build_sparse_cosine_sketch(sparse_payloads(10))
        assert "sparse-cosine" in suite.describe()
        assert isinstance(SketchSuite.__dataclass_fields__, dict)
