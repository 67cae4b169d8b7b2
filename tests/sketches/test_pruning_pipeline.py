"""Pruning across execution paths: engines, data planes, faults.

The sketch suite is built once driver-side and shipped through the
distributed cache, and every pruning input (blake2b hashing, frozen
arrays, seeded builders) is process-independent — so pruned output must
be identical across SerialEngine, MultiprocessEngine, both broadcast
data planes, the broadcast one-job path, and under injected faults
(retries prune against the same frozen state).
"""

from __future__ import annotations

import pytest

from repro.apps.docsim import (
    brute_force_similarity,
    build_tfidf,
    cosine_similarity,
)
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.element import results_matrix
from repro.core.pairwise import (
    EVALUATIONS,
    PAIRS_PRUNED,
    PAIRWISE_GROUP,
    PairwiseComputation,
)
from repro.mapreduce import MultiprocessEngine
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.shm import shm_available
from repro.workloads.generator import make_documents

V = 23
THRESHOLD = 0.3


def sparse_vectors(v: int = V):
    return build_tfidf(
        make_documents(
            v, vocabulary=120, length=30, num_topics=4, topic_strength=0.85, seed=11
        )
    )


def serial_reference(vectors):
    computation = PairwiseComputation(
        BlockScheme(len(vectors), 4),
        cosine_similarity,
        threshold=THRESHOLD,
        pruning="sketch",
    )
    return results_matrix(computation.run_cached(list(vectors)))


class TestDataPlaneParity:
    @pytest.mark.parametrize(
        "data_plane",
        [
            "default",
            pytest.param(
                "shm",
                marks=pytest.mark.skipif(
                    not shm_available(),
                    reason="POSIX shared memory unavailable",
                ),
            ),
        ],
    )
    def test_multiprocess_matches_serial(self, data_plane):
        vectors = sparse_vectors()
        reference = serial_reference(vectors)
        with MultiprocessEngine(data_plane=data_plane) as engine:
            computation = PairwiseComputation(
                BlockScheme(V, 4),
                cosine_similarity,
                threshold=THRESHOLD,
                pruning="sketch",
                engine=engine,
            )
            pooled = results_matrix(computation.run_cached(list(vectors)))
        assert pooled == reference

    def test_run_and_run_cached_agree(self):
        vectors = sparse_vectors()
        computation = PairwiseComputation(
            BlockScheme(V, 4),
            cosine_similarity,
            threshold=THRESHOLD,
            pruning="sketch",
        )
        assert results_matrix(computation.run(list(vectors))) == results_matrix(
            computation.run_cached(list(vectors))
        )


class TestPruningPower:
    def test_topic_clustered_corpus_prunes_most_pairs_at_full_recall(self):
        # 30 tight topics: same-topic similarity sits above 0.6, the rest
        # near 0, so at t=0.7 sound bounds must discard >= 60 % of the
        # pair relation (measured: 243 of 7140 evaluated) and keep every
        # qualifying pair.
        v = 120
        vectors = build_tfidf(
            make_documents(
                v, vocabulary=600, length=80, num_topics=30, topic_strength=0.95, seed=42
            )
        )
        computation = PairwiseComputation(
            BlockScheme(v, 8), cosine_similarity, threshold=0.7, pruning="sketch"
        )
        merged, pipeline = computation.run_cached(list(vectors), return_pipeline=True)
        want = brute_force_similarity(vectors, threshold=0.7)
        assert results_matrix(merged).keys() == want.keys()  # recall 1.0, no extras
        evaluations = pipeline.counters.get(PAIRWISE_GROUP, EVALUATIONS)
        assert evaluations <= 0.4 * (v * (v - 1) // 2), evaluations


class TestBroadcastOneJob:
    def test_one_job_path_prunes_and_matches(self):
        vectors = sparse_vectors()
        computation = PairwiseComputation(
            BroadcastScheme(V, num_tasks=5),
            cosine_similarity,
            threshold=THRESHOLD,
            pruning="sketch",
        )
        merged, result = computation.run_broadcast_job(
            list(vectors), return_result=True
        )
        want = brute_force_similarity(vectors, threshold=THRESHOLD)
        assert results_matrix(merged).keys() == want.keys()
        evaluations = result.counters.get(PAIRWISE_GROUP, EVALUATIONS)
        pruned = result.counters.get(PAIRWISE_GROUP, PAIRS_PRUNED)
        assert pruned > 0
        assert evaluations + pruned == V * (V - 1) // 2


class TestFaultDeterminism:
    """Retried attempts must reach identical pruning decisions.

    Rate faults hit first attempts only, so ``max_attempts=3`` absorbs a
    5% crash rate; what this actually checks is that a *re-run* task —
    fresh process, fresh interpreter — rebuilds the exact same pair
    survivor set from the cached suite (blake2b hashing, no ``hash()``).
    """

    def test_pruned_results_survive_injected_crashes(self):
        vectors = sparse_vectors()
        reference = serial_reference(vectors)
        plan = FaultPlan(crash_rate=0.05, seed=13)
        with MultiprocessEngine(max_workers=2) as engine:
            computation = PairwiseComputation(
                BlockScheme(V, 4),
                cosine_similarity,
                threshold=THRESHOLD,
                pruning="sketch",
                engine=engine,
                runtime_config={"fault_plan": plan},
                max_attempts=3,
            )
            merged, result = computation.run_cached(
                list(vectors), return_pipeline=True
            )
        assert results_matrix(merged) == reference
        # The ledger survives retries too: replayed attempts must not
        # double-count pruned pairs in the final conservation check.
        evaluations = result.counters.get(PAIRWISE_GROUP, EVALUATIONS)
        pruned = result.counters.get(PAIRWISE_GROUP, PAIRS_PRUNED)
        assert evaluations + pruned == V * (V - 1) // 2

    def test_higher_crash_rate_still_identical(self):
        vectors = sparse_vectors()
        reference = serial_reference(vectors)
        plan = FaultPlan(crash_rate=0.3, seed=29)
        with MultiprocessEngine(max_workers=2) as engine:
            merged = PairwiseComputation(
                BlockScheme(V, 4),
                cosine_similarity,
                threshold=THRESHOLD,
                pruning="sketch",
                engine=engine,
                runtime_config={"fault_plan": plan},
                max_attempts=4,
            ).run_cached(list(vectors))
        assert results_matrix(merged) == reference
