"""The shm data plane: the job's broadcast file on ``/dev/shm``.

Both planes write the same NPB1-framed broadcast file and workers map it
the same way; the shm plane only puts the file (and its began-marker
directory) in a ``repro-shm-*`` temp dir on ``/dev/shm``.  Everything
here needs a writable ``/dev/shm``; the module skips cleanly (and carries
the ``shm`` marker for its CI lane) where there is none.
"""

import errno
import glob
from pathlib import Path

import numpy as np
import pytest

from repro.core.block import BlockScheme
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce import Job, Mapper, MultiprocessEngine, SerialEngine
from repro.mapreduce import runtime
from repro.mapreduce.faults import FaultPlan, WorkerKillFault
from repro.mapreduce.serialization import decode_records, read_chunk_view

from .wordcount import SumReducer

pytestmark = [
    pytest.mark.shm,
    pytest.mark.skipif(not runtime.shm_available(), reason="/dev/shm is not a writable directory"),
]


def shm_entries():
    return set(glob.glob(f"{runtime.SHM_DIR}/repro-shm-*"))


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test must leave /dev/shm as it found it."""
    before = shm_entries()
    yield
    assert shm_entries() == before


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


class TestKernelOverSharedSegments:
    def test_dense_kernel_reads_attached_store_without_copy(self):
        from repro.kernels.dense import DenseDotKernel

        store = {i: np.arange(8.0) + i for i in range(6)}
        job = Job(name="store", mapper=CacheSumMapper, reducer=None, cache={"dataset": store})
        with MultiprocessEngine(max_workers=1, data_plane="shm") as engine:
            handle = engine._job_handle(job)
            try:
                assert handle.path.startswith(f"{runtime.SHM_DIR}/repro-shm-")
                view = read_chunk_view(handle.path)
                mapped = decode_records(view).cache["dataset"]
                raw = np.frombuffer(view, dtype=np.uint8)
                for row in mapped.values():
                    assert np.shares_memory(np.asarray(row, dtype=float), raw)
                    assert not row.flags.writeable
                pairs = np.array([(i, j) for i in range(6) for j in range(i + 1, 6)])
                results = DenseDotKernel().evaluate_block(mapped, pairs)
                expected = [float(np.dot(store[i], store[j])) for i, j in pairs]
                assert np.array_equal(results, expected)
            finally:
                engine._release_job(handle)


class TestBroadcastFile:
    def test_cached_job_broadcasts_the_same_bytes_on_both_planes(self):
        # The shm plane writes the very file the default plane writes,
        # cache included; only its directory differs, and that directory
        # lives exactly as long as the engine.
        before = shm_entries()
        scheme = BlockScheme(V, 4)
        stats = {}
        for plane in ("default", "shm"):
            with MultiprocessEngine(max_workers=2, data_plane=plane) as engine:
                comp = PairwiseComputation(scheme, dot, engine=engine, num_reduce_tasks=3)
                comp.run_cached(DATA, num_map_tasks=4)
                stats[plane] = engine.stats
                assert len(shm_entries() - before) == (plane == "shm")
            assert shm_entries() == before
        assert stats["shm"].jobs_broadcast == stats["default"].jobs_broadcast == 1
        assert stats["shm"].broadcast_bytes == stats["default"].broadcast_bytes
        assert stats["shm"].broadcast_bytes > sum(row.nbytes for row in DATA)


class TestCrashRecovery:
    def test_worker_kill_recovers_and_leaves_no_segments(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=1)])
        reference = SerialEngine().run(cache_job(), RECORDS, num_map_tasks=4)
        with MultiprocessEngine(
            max_workers=2, data_plane="shm", max_attempts=2, fault_plan=plan
        ) as engine:
            result = engine.run(cache_job(), RECORDS, num_map_tasks=4)
            assert engine.stats.pool_restarts >= 1
            assert engine.stats.jobs_broadcast == 1
            assert engine.stats.broadcast_bytes > cache_job().cache["data"].nbytes
            # engine still usable on the same plane after recovery
            again = engine.run(cache_job(), RECORDS, num_map_tasks=4)
            assert engine.stats.jobs_broadcast == 2
        assert result.records == reference.records
        assert again.records == reference.records
        # no_shm_leaks checks that nothing is left on /dev/shm after close()

    def test_kill_mid_reduce_recovers(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="reduce", task_index=1)])
        reference = SerialEngine().run(cache_job(), RECORDS, num_map_tasks=4)
        with MultiprocessEngine(
            max_workers=2, data_plane="shm", max_attempts=2, fault_plan=plan
        ) as engine:
            result = engine.run(cache_job(), RECORDS, num_map_tasks=4)
        assert result.records == reference.records


class TestFallback:
    def test_engine_downgrades_when_shm_unavailable(self, monkeypatch):
        monkeypatch.setattr("repro.mapreduce.runtime.shm_available", lambda: False)
        before = shm_entries()
        with MultiprocessEngine(max_workers=2, data_plane="shm") as engine:
            assert engine.data_plane == "default"
            result = engine.run(cache_job(), RECORDS, num_map_tasks=4)
            assert engine.stats.jobs_broadcast == 1
            assert shm_entries() == before
        reference = SerialEngine().run(cache_job(), RECORDS, num_map_tasks=4)
        assert result.records == reference.records

    def test_a_job_that_does_not_fit_in_dev_shm_goes_to_disk(self, monkeypatch):
        write_encoded = runtime.write_encoded
        refused = []

        def full_shm(path, obj):
            if str(path).startswith(runtime.SHM_DIR):
                Path(path).write_bytes(b"NPB1 partial")
                refused.append(Path(path))
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return write_encoded(path, obj)

        monkeypatch.setattr(runtime, "write_encoded", full_shm)
        reference = SerialEngine().run(cache_job(), RECORDS, num_map_tasks=4)
        with MultiprocessEngine(max_workers=2, data_plane="shm") as engine:
            result = engine.run(cache_job(), RECORDS, num_map_tasks=4)
            assert engine.data_plane == "shm"
            assert len(refused) == 1 and not refused[0].exists()
            assert engine.stats.jobs_broadcast == 1
            assert engine.stats.broadcast_bytes > cache_job().cache["data"].nbytes
        assert result.records == reference.records
        assert result.counters.as_dict() == reference.counters.as_dict()

    def test_invalid_plane_rejected(self):
        with pytest.raises(ValueError, match="data_plane"):
            MultiprocessEngine(max_workers=2, data_plane="mystery")
