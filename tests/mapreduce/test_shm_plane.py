"""Shared-memory data plane: segment lifecycle, parity, crash recovery.

Everything here needs working POSIX shared memory; the module skips
cleanly (and carries the ``shm`` marker for its CI lane) where
``/dev/shm`` is absent.
"""

import glob
import pickle

import numpy as np
import pytest

from repro.core.element import results_matrix
from repro.core.pairwise import PairwiseComputation
from repro.core.block import BlockScheme
from repro.mapreduce import Job, Mapper, MultiprocessEngine, SerialEngine
from repro.mapreduce.faults import FaultPlan, WorkerKillFault
from repro.mapreduce.shm import (
    SEGMENT_PREFIX,
    SegmentHost,
    SegmentRef,
    attach_object,
    detach_all,
    shm_available,
)
from repro.mapreduce.tasks import JobRef

from .wordcount import SumReducer

pytestmark = [
    pytest.mark.shm,
    pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable"),
]


def leaked_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-*")


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must leave /dev/shm as it found it."""
    before = set(leaked_segments())
    yield
    detach_all()
    assert set(leaked_segments()) == before


class TestSegmentHost:
    def test_materialize_attach_roundtrip(self):
        host = SegmentHost()
        cache = {"data": np.arange(32.0).reshape(8, 4), "tag": "x"}
        try:
            ref, created = host.materialize("job-1", cache)
            assert created > 0
            attached = attach_object(ref)
            assert attached["tag"] == "x"
            np.testing.assert_array_equal(attached["data"], cache["data"])
            assert not attached["data"].flags.writeable
        finally:
            host.close()
            detach_all()

    def test_attached_arrays_share_segment_memory(self):
        from repro.mapreduce.shm import _ATTACHED

        host = SegmentHost()
        cache = {"data": np.arange(64.0)}
        try:
            ref, _created = host.materialize("job-1", cache)
            attached = attach_object(ref)
            # Compare against the attach-side mapping: a fresh
            # SharedMemory(name=...) maps the segment at a different
            # virtual address, which np.shares_memory cannot relate.
            segment, _obj = _ATTACHED[ref.name]
            raw = np.frombuffer(segment.buf, dtype=np.uint8)
            assert np.shares_memory(attached["data"], raw)
            del raw
        finally:
            detach_all()
            host.close()

    def test_same_cache_object_shares_one_segment(self):
        host = SegmentHost()
        cache = {"data": np.arange(16.0)}
        try:
            ref1, created1 = host.materialize("job-1", cache)
            ref2, created2 = host.materialize("job-2", cache)
            assert ref1 == ref2
            assert created1 > 0 and created2 == 0
            host.release("job-1")
            assert leaked_segments()  # job-2 still holds it
            host.release("job-2")
            assert not leaked_segments()
        finally:
            host.close()

    def test_release_unknown_uid_is_noop(self):
        host = SegmentHost()
        host.release("never-materialized")
        host.close()

    def test_revive_recreates_missing_segment_under_same_name(self):
        host = SegmentHost()
        cache = {"data": np.arange(24.0)}
        try:
            ref, _created = host.materialize("job-1", cache)
            assert host.revive() == 0  # present: nothing to do
            from multiprocessing import shared_memory

            victim = shared_memory.SharedMemory(name=ref.name)
            victim.unlink()  # simulate an external sweep
            victim.close()
            assert host.revive() == 1
            attached = attach_object(ref)
            np.testing.assert_array_equal(attached["data"], cache["data"])
        finally:
            detach_all()
            host.close()

    def test_close_is_idempotent(self):
        host = SegmentHost()
        host.materialize("job-1", {"data": np.arange(4.0)})
        host.close()
        host.close()
        assert not leaked_segments()


class TestKernelOverSharedSegments:
    def test_dense_kernel_reads_attached_store_without_copy(self):
        from repro.kernels.dense import DenseDotKernel
        from repro.mapreduce.shm import _ATTACHED

        host = SegmentHost()
        store = {i: np.arange(8.0) + i for i in range(6)}
        try:
            ref, _created = host.materialize("job-1", {"dataset": store})
            attached = attach_object(ref)["dataset"]
            segment, _obj = _ATTACHED[ref.name]
            raw = np.frombuffer(segment.buf, dtype=np.uint8)
            for row in attached.values():
                ingested = np.asarray(row, dtype=float)
                assert np.shares_memory(ingested, raw)
                assert not row.flags.writeable
            del raw
            pairs = np.array([(i, j) for i in range(6) for j in range(i + 1, 6)])
            results = DenseDotKernel().evaluate_block(attached, pairs)
            expected = [float(np.dot(store[i], store[j])) for i, j in pairs]
            assert np.array_equal(results, expected)
        finally:
            detach_all()
            host.close()


class TestRefWire:
    def test_jobref_with_cache_ref_pickles(self):
        ref = JobRef(
            uid="job-9",
            path="/tmp/job-9.pkl",
            cache_ref=SegmentRef(name="repro-shm-1-abc", nbytes=128),
        )
        clone = pickle.loads(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == ref
        assert clone.cache_ref.nbytes == 128

    def test_attach_missing_segment_raises(self):
        with pytest.raises(FileNotFoundError):
            attach_object(SegmentRef(name="repro-shm-0-missing", nbytes=8))


# -- engine-level tests --------------------------------------------------------

V = 18
DATA = [np.arange(8.0) * (i + 1) for i in range(V)]


def dot(a, b):
    return float(np.dot(a, b))


class CacheSumMapper(Mapper):
    def map(self, key, value, context):
        arr = context.cache_file("data")
        context.emit(key % 3, float(arr[value].sum()))


def cache_job(**overrides):
    settings = dict(
        name="cache-sum",
        mapper=CacheSumMapper,
        reducer=SumReducer,
        num_reducers=3,
        cache={"data": np.arange(80.0).reshape(10, 8)},
    )
    settings.update(overrides)
    return Job(**settings)


RECORDS = [(i, i % 10) for i in range(40)]


class TestEngineParity:
    def test_cached_pairwise_bit_identical_across_planes(self):
        scheme = BlockScheme(V, 4)
        serial = PairwiseComputation(
            scheme, dot, engine=SerialEngine(), num_reduce_tasks=3
        )
        merged_serial = serial.run_cached(DATA, num_map_tasks=4)
        with MultiprocessEngine(max_workers=2, data_plane="shm") as engine:
            assert engine.data_plane == "shm"
            pooled = PairwiseComputation(scheme, dot, engine=engine, num_reduce_tasks=3)
            merged_shm = pooled.run_cached(DATA, num_map_tasks=4)
            assert engine.stats.shm_segments >= 1
            assert engine.stats.shm_bytes > 0
        with MultiprocessEngine(max_workers=2, data_plane="default") as engine:
            pooled = PairwiseComputation(scheme, dot, engine=engine, num_reduce_tasks=3)
            merged_default = pooled.run_cached(DATA, num_map_tasks=4)
            assert engine.stats.shm_segments == 0
        assert (
            results_matrix(merged_serial)
            == results_matrix(merged_shm)
            == results_matrix(merged_default)
        )

    def test_stage_counters_identical_across_planes(self):
        scheme = BlockScheme(V, 4)
        with MultiprocessEngine(max_workers=2, data_plane="shm") as engine:
            comp = PairwiseComputation(scheme, dot, engine=engine, num_reduce_tasks=3)
            _merged, shm_result = comp.run_cached(
                DATA, num_map_tasks=4, return_pipeline=True
            )
        with MultiprocessEngine(max_workers=2) as engine:
            comp = PairwiseComputation(scheme, dot, engine=engine, num_reduce_tasks=3)
            _merged, default_result = comp.run_cached(
                DATA, num_map_tasks=4, return_pipeline=True
            )
        assert len(shm_result.stages) == len(default_result.stages)
        for shm_stage, default_stage in zip(shm_result.stages, default_result.stages):
            # Records carry ndarray payloads, so compare serialized bytes
            # (Element.__eq__ on arrays is ambiguous); identical pickles
            # are the bit-identical claim anyway.
            assert pickle.dumps(shm_stage.records) == pickle.dumps(
                default_stage.records
            )
            assert shm_stage.counters.as_dict() == default_stage.counters.as_dict()

    def test_fused_chain_shares_one_segment(self):
        # Only run_cached's compute job reads the payload store (results
        # come home payload-free; with an aggregator that wants payloads
        # both jobs attach the *same* cache dict, held concurrently by the
        # fused chain), so the shm plane materializes exactly one segment
        # for the whole pipeline.
        scheme = BlockScheme(V, 4)
        with MultiprocessEngine(max_workers=2, data_plane="shm") as engine:
            comp = PairwiseComputation(scheme, dot, engine=engine, num_reduce_tasks=3)
            comp.run_cached(DATA, num_map_tasks=4)
            assert engine.stats.shm_segments == 1
            assert engine.stats.jobs_broadcast == 2


class TestCrashRecovery:
    def test_worker_kill_recovers_and_leaves_no_segments(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=1)])
        reference = SerialEngine().run(cache_job(), RECORDS, num_map_tasks=4)
        with MultiprocessEngine(
            max_workers=2, data_plane="shm", max_attempts=2, fault_plan=plan
        ) as engine:
            result = engine.run(cache_job(), RECORDS, num_map_tasks=4)
            assert engine.stats.pool_restarts >= 1
            assert engine.stats.shm_segments == 1
            # engine still usable on the same plane after recovery
            again = engine.run(cache_job(), RECORDS, num_map_tasks=4)
        assert result.records == reference.records
        assert again.records == reference.records
        assert not leaked_segments()

    def test_kill_mid_reduce_recovers(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="reduce", task_index=1)])
        reference = SerialEngine().run(cache_job(), RECORDS, num_map_tasks=4)
        with MultiprocessEngine(
            max_workers=2, data_plane="shm", max_attempts=2, fault_plan=plan
        ) as engine:
            result = engine.run(cache_job(), RECORDS, num_map_tasks=4)
        assert result.records == reference.records
        assert not leaked_segments()


class TestFallback:
    def test_engine_downgrades_when_shm_unavailable(self, monkeypatch):
        monkeypatch.setattr("repro.mapreduce.runtime.shm_available", lambda: False)
        with MultiprocessEngine(max_workers=2, data_plane="shm") as engine:
            assert engine.data_plane == "default"
            result = engine.run(cache_job(), RECORDS, num_map_tasks=4)
            assert engine.stats.shm_segments == 0
        reference = SerialEngine().run(cache_job(), RECORDS, num_map_tasks=4)
        assert result.records == reference.records

    def test_invalid_plane_rejected(self):
        with pytest.raises(ValueError, match="data_plane"):
            MultiprocessEngine(max_workers=2, data_plane="mystery")
