"""End-to-end pairwise computation tests (Algorithms 1 & 2 on the MR runtime)."""

import pytest

from repro.core.aggregate import ThresholdAggregator, TopKAggregator
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import results_matrix
from repro.core.pairwise import (
    EVALUATIONS,
    PAIRWISE_GROUP,
    REPLICAS_EMITTED,
    PairwiseComputation,
    brute_force_results,
    pairwise_results,
)
from repro.mapreduce import MultiprocessEngine, SerialEngine

from ..conftest import abs_diff, pair_tuple


class TestTwoJobPipeline:
    def test_matches_brute_force(self, small_dataset, any_scheme):
        got = pairwise_results(small_dataset, abs_diff, any_scheme)
        assert got == brute_force_results(small_dataset, abs_diff)

    def test_every_pair_evaluated_in_exactly_one_task(self, small_dataset, any_scheme):
        """pair_tuple results identify inputs, so duplicates/misroutes show."""
        got = pairwise_results(small_dataset, pair_tuple, any_scheme)
        assert len(got) == 23 * 22 // 2

    def test_result_symmetry_in_element_maps(self, small_dataset):
        computation = PairwiseComputation(BlockScheme(23, 3), abs_diff)
        merged = computation.run(small_dataset)
        for eid, element in merged.items():
            # Every element carries results against all v−1 partners.
            assert len(element.results) == 22
            assert eid not in element.results

    def test_counters_measure_table1(self, small_dataset):
        scheme = BlockScheme(23, 4)
        computation = PairwiseComputation(scheme, abs_diff)
        _merged, pipeline = computation.run(small_dataset, return_pipeline=True)
        counters = pipeline.counters
        # Replicas emitted by job 1's map = v·h exactly.
        assert counters.get(PAIRWISE_GROUP, REPLICAS_EMITTED) == 23 * scheme.h
        # Evaluations = full triangle.
        assert counters.get(PAIRWISE_GROUP, EVALUATIONS) == 23 * 22 // 2

    def test_payloads_survive(self, small_dataset):
        computation = PairwiseComputation(DesignScheme(23), abs_diff)
        merged = computation.run(small_dataset)
        for eid, element in merged.items():
            assert element.payload == small_dataset[eid - 1]


class TestInputHandling:
    def test_wrong_cardinality_rejected(self):
        computation = PairwiseComputation(BlockScheme(23, 3), abs_diff)
        with pytest.raises(ValueError):
            computation.run([1.0, 2.0])

    def test_bad_reduce_task_count(self):
        with pytest.raises(ValueError):
            PairwiseComputation(BlockScheme(4, 2), abs_diff, num_reduce_tasks=0)


class TestRunLocal:
    def test_matches_pipeline(self, small_dataset, any_scheme):
        computation = PairwiseComputation(any_scheme, abs_diff)
        assert results_matrix(computation.run_local(small_dataset)) == results_matrix(
            computation.run(small_dataset)
        )


class TestBroadcastOneJob:
    def test_matches_brute_force(self, small_dataset):
        scheme = BroadcastScheme(23, 6)
        computation = PairwiseComputation(scheme, abs_diff)
        merged = computation.run_cached(small_dataset)
        assert results_matrix(merged) == brute_force_results(small_dataset, abs_diff)

    def test_counter_evaluations(self, small_dataset):
        scheme = BroadcastScheme(23, 4)
        computation = PairwiseComputation(scheme, abs_diff)
        _merged, result = computation.run_cached(small_dataset, return_pipeline=True)
        assert result.counters.get(PAIRWISE_GROUP, EVALUATIONS) == 253
        # One-job form: the map tasks compute, as many as there are reducers.
        (job,) = result.stages
        assert job.num_map_tasks == computation.num_reduce_tasks


class TestAggregatorIntegration:
    def test_threshold_pruning(self, small_dataset):
        computation = PairwiseComputation(
            BlockScheme(23, 4), abs_diff, aggregator=ThresholdAggregator(3.0)
        )
        merged = computation.run(small_dataset)
        for element in merged.values():
            assert all(value < 3.0 for value in element.results.values())

    def test_topk(self, small_dataset):
        computation = PairwiseComputation(
            DesignScheme(23), abs_diff, aggregator=TopKAggregator(3)
        )
        merged = computation.run(small_dataset)
        brute = brute_force_results(small_dataset, abs_diff)
        for eid, element in merged.items():
            assert len(element.results) == 3
            # The kept values are the 3 smallest among the true distances.
            all_dists = sorted(
                value
                for (a, b), value in brute.items()
                if eid in (a, b)
            )
            assert sorted(element.results.values()) == all_dists[:3]


class TestEngines:
    @pytest.mark.parametrize("engine_factory", [SerialEngine, lambda: MultiprocessEngine(2)])
    def test_engine_equivalence(self, small_dataset, engine_factory):
        scheme = BlockScheme(23, 3)
        computation = PairwiseComputation(scheme, abs_diff, engine=engine_factory())
        got = results_matrix(computation.run(small_dataset))
        assert got == brute_force_results(small_dataset, abs_diff)

    def test_multiprocess_broadcast_job(self, small_dataset):
        scheme = BroadcastScheme(23, 4)
        computation = PairwiseComputation(
            scheme, abs_diff, engine=MultiprocessEngine(2)
        )
        merged = computation.run_cached(small_dataset)
        assert results_matrix(merged) == brute_force_results(small_dataset, abs_diff)


class TestBruteForceHelper:
    def test_shape(self):
        data = [1.0, 5.0, 2.0]
        assert brute_force_results(data, abs_diff) == {
            (2, 1): 4.0,
            (3, 1): 1.0,
            (3, 2): 3.0,
        }
