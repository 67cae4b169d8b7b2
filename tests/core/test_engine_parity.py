"""Serial vs. pooled engine: bit-identical pairwise runs per scheme.

The acceptance bar for the persistent-pool engine: for every distribution
scheme and every execution path (the two-job shuffle chain, the one-job
cached plan, broadcast included), records *and* counters must be
exactly equal between :class:`SerialEngine` and
:class:`MultiprocessEngine` — stage by stage, in order.
"""

import pytest

from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import results_matrix
from repro.core.pairwise import PairwiseComputation, brute_force_results
from repro.mapreduce import MultiprocessEngine, SerialEngine

V = 18
DATA = [float(i * i % 37) for i in range(V)]


def abs_diff(a, b):
    return abs(a - b)


SCHEMES = {
    "broadcast": lambda: BroadcastScheme(V, 4),
    "block": lambda: BlockScheme(V, 4),
    "design": lambda: DesignScheme(V),
}


def computation(scheme, engine):
    return PairwiseComputation(scheme, abs_diff, engine=engine, num_reduce_tasks=3)


def assert_stages_identical(serial_result, pooled_result):
    """Stage records (in order) and merged counters must match exactly."""
    assert len(serial_result.stages) == len(pooled_result.stages)
    for serial_stage, pooled_stage in zip(serial_result.stages, pooled_result.stages):
        assert serial_stage.records == pooled_stage.records
        assert serial_stage.counters.as_dict() == pooled_stage.counters.as_dict()


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestTwoJobChainParity:
    def test_two_job_pipeline_bit_identical(self, scheme_name):
        serial = computation(SCHEMES[scheme_name](), SerialEngine())
        merged_serial, result_serial = serial.run(DATA, num_map_tasks=4, return_pipeline=True)
        with MultiprocessEngine(max_workers=2) as engine:
            pooled = computation(SCHEMES[scheme_name](), engine)
            merged_pooled, result_pooled = pooled.run(
                DATA, num_map_tasks=4, return_pipeline=True
            )
        assert_stages_identical(result_serial, result_pooled)
        assert results_matrix(merged_serial) == results_matrix(merged_pooled)
        assert results_matrix(merged_serial) == brute_force_results(DATA, abs_diff)

    def test_cached_chain_bit_identical(self, scheme_name):
        serial = computation(SCHEMES[scheme_name](), SerialEngine())
        merged_serial, result_serial = serial.run_cached(
            DATA, num_map_tasks=4, return_pipeline=True
        )
        with MultiprocessEngine(max_workers=2) as engine:
            pooled = computation(SCHEMES[scheme_name](), engine)
            merged_pooled, result_pooled = pooled.run_cached(
                DATA, num_map_tasks=4, return_pipeline=True
            )
        assert_stages_identical(result_serial, result_pooled)
        assert results_matrix(merged_serial) == results_matrix(merged_pooled)
        assert results_matrix(merged_serial) == brute_force_results(DATA, abs_diff)


class TestBroadcastOneJobParity:
    def test_one_job_broadcast_bit_identical(self):
        scheme = BroadcastScheme(V, 4)
        serial = computation(scheme, SerialEngine())
        merged_serial, result_serial = serial.run_cached(DATA, return_pipeline=True)
        with MultiprocessEngine(max_workers=2) as engine:
            pooled = computation(BroadcastScheme(V, 4), engine)
            merged_pooled, result_pooled = pooled.run_cached(DATA, return_pipeline=True)
        assert_stages_identical(result_serial, result_pooled)
        assert results_matrix(merged_serial) == results_matrix(merged_pooled)


class TestCachedVariantSemantics:
    def test_cached_matches_record_variant(self):
        scheme = DesignScheme(V)
        serial = computation(scheme, SerialEngine())
        via_records = serial.run(DATA, num_map_tasks=4)
        via_cache = serial.run_cached(DATA, num_map_tasks=4)
        assert results_matrix(via_records) == results_matrix(via_cache)
        assert sorted(via_cache) == sorted(via_records)
        for eid, element in via_cache.items():
            assert element.payload == via_records[eid].payload
