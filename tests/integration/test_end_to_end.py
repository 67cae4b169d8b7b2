"""Integration scenarios: multiple subsystems exercised together."""

import math

import numpy as np
import pytest

from repro import MB, TB
from repro.apps import (
    build_tfidf,
    cluster_from_neighbors,
    cosine_similarity,
    dbscan_reference,
)
from repro.cluster import ClusterSimulator, ClusterSpec, NodeSpec, TaskCost, build_trace
from repro.core import (
    BlockScheme,
    DesignScheme,
    PairwiseComputation,
    ThresholdAggregator,
    results_matrix,
)
from repro.core.pairwise import PAIRWISE_GROUP, REPLICAS_EMITTED
from repro.core.runner import auto_pairwise, estimate_element_size
from repro.mapreduce import MultiprocessEngine
from repro.workloads import make_blobs, make_documents


def euclid(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


class TestAutoRunner:
    def test_small_scalars_pick_broadcast(self):
        data = [float(x) for x in range(30)]
        merged, choice = auto_pairwise(data, lambda a, b: abs(a - b))
        assert choice.scheme.name == "broadcast"
        assert len(results_matrix(merged)) == 30 * 29 // 2

    def test_declared_sizes_drive_choice(self):
        """SizedPayloads let tiny in-process data simulate huge elements."""
        from repro.mapreduce import SizedPayload

        data = [SizedPayload(50 * MB, tag=i) for i in range(60)]
        merged, choice = auto_pairwise(
            data,
            lambda a, b: abs(a.tag - b.tag),
            maxws=200 * MB,
            maxis=1 * TB,
        )
        # 60 × 50 MB = 3 GB: too big to broadcast, block takes it.
        assert choice.scheme.name == "block"
        assert len(results_matrix(merged)) == 60 * 59 // 2

    def test_estimator_sanity(self):
        assert estimate_element_size([0.5] * 100) < 200
        with pytest.raises(ValueError):
            estimate_element_size([])

    def test_too_small_dataset(self):
        with pytest.raises(ValueError):
            auto_pairwise([1.0], lambda a, b: 0.0)

    def test_hierarchical_path_runs_rounds(self):
        """Huge declared elements force the §7 fallback; results still exact."""
        from repro.mapreduce import SizedPayload
        from repro.core.hierarchical import HierarchicalBlockScheme

        data = [SizedPayload(40 * MB, tag=i) for i in range(30)]
        merged, choice = auto_pairwise(
            data,
            lambda a, b: abs(a.tag - b.tag),
            maxws=100 * MB,   # only two elements fit a slot at once
            maxis=600 * MB,   # flat replication cannot fit
        )
        assert isinstance(choice.scheme, HierarchicalBlockScheme)
        pairs = results_matrix(merged)
        assert len(pairs) == 30 * 29 // 2
        assert pairs[(30, 1)] == 29


class TestDbscanMultiprocess:
    """The full production shape: the two MR jobs on a pool, DBSCAN out."""

    def test_pipeline(self):
        points = make_blobs(40, num_clusters=3, spread=0.3, seed=23)
        eps, min_pts = 1.5, 3

        with MultiprocessEngine(max_workers=2) as engine:
            computation = PairwiseComputation(
                BlockScheme(40, 5),
                euclid,
                aggregator=ThresholdAggregator(eps),
                engine=engine,
            )
            elements, pipeline = computation.run(points, return_pipeline=True)
        neighbors = {eid: sorted(el.results) for eid, el in elements.items()}
        got = cluster_from_neighbors(neighbors, min_pts)

        expected = dbscan_reference(points, eps, min_pts)
        assert got.labels == expected.labels
        # Block replication h: every element reaches h working sets.
        assert pipeline.counters.get(PAIRWISE_GROUP, REPLICAS_EMITTED) == 40 * 5


class TestDocsimPrimePowerDesign:
    """Document similarity through the design scheme on the GF(4) plane."""

    def test_topical_documents_most_similar_within_topic(self):
        docs = make_documents(21, num_topics=3, topic_strength=0.9, seed=31)
        vectors = build_tfidf(docs)
        scheme = DesignScheme(21, allow_prime_powers=True)
        assert scheme.q == 4
        computation = PairwiseComputation(scheme, cosine_similarity)
        merged = computation.run(vectors)
        sims = results_matrix(merged)
        # Mean same-topic similarity must dominate cross-topic similarity.
        # (Topics were assigned randomly by the generator; recover them
        # through the planted vocabulary slices.)
        def topic_of(doc_index):
            slice_votes = {}
            for token in docs[doc_index]:
                rank = int(token[1:])
                slice_votes[rank // (500 // 3)] = slice_votes.get(rank // (500 // 3), 0) + 1
            return max(slice_votes, key=slice_votes.get)

        same, cross = [], []
        for (i, j), sim in sims.items():
            (same if topic_of(i - 1) == topic_of(j - 1) else cross).append(sim)
        assert sum(same) / len(same) > 3 * (sum(cross) / len(cross))


class TestSimulateThenTrace:
    """Chooser → simulator → trace: the capacity-planning loop closed."""

    def test_workflow(self):
        from repro.core import choose_scheme

        choice = choose_scheme(
            2_000, 100_000, maxws=200 * MB, maxis=1 * TB, num_nodes=4
        )
        scheme = choice.scheme
        cluster = ClusterSpec.homogeneous(4, NodeSpec(slots=2))
        simulator = ClusterSimulator(cluster, maxis=1 * TB)
        report = simulator.simulate(scheme, 100_000)
        assert report.feasible

        costs = [
            TaskCost(t, max(1e-9, scheme.task_profile(t).num_evaluations / 10_000))
            for t in range(scheme.num_tasks)
        ]
        trace = build_trace(costs, cluster)
        assert math.isclose(
            trace.makespan, report.assignment.makespan, rel_tol=0.5
        ) or trace.makespan > 0
        assert trace.mean_utilization() > 0.5  # LPT packs a balanced scheme well
        gantt = trace.gantt(width=60)
        assert gantt.count("\n") >= 8  # 4 nodes × 2 slots rows


class TestEngineMeasuredWorkingSet:
    def test_gauge_matches_scheme_prediction(self):
        """The real engine's max-working-set gauge equals the scheme's
        Table-1 working set (records)."""
        from repro.core.pairwise import MAX_WORKING_SET_RECORDS, PAIRWISE_GROUP

        data = [float(x) for x in range(40)]
        scheme = BlockScheme(40, 4)
        computation = PairwiseComputation(scheme, lambda a, b: abs(a - b))
        _merged, pipeline = computation.run(data, return_pipeline=True)
        gauge = pipeline.stages[0].counters.get(
            PAIRWISE_GROUP, MAX_WORKING_SET_RECORDS
        )
        assert gauge == scheme.metrics().working_set_elements
