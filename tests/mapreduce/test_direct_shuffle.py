"""Direct (driver-bypass) spill-file shuffle: parity, metering, faults.

The acceptance bar: the direct plane must be bit-identical to both the
serial engine and the legacy relay plane — same records, same counters —
including when reduce attempts are retried mid-merge, and the driver must
stop touching record payloads (``EngineStats.driver_bytes`` collapses to
manifest size).
"""

import os

import pytest

from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce.counters import FRAMEWORK_GROUP
from repro.mapreduce.faults import CrashFault, FaultPlan, WorkerKillFault
from repro.mapreduce.job import Job, Mapper, Reducer, records_from
from repro.mapreduce.runtime import (
    REDUCE_SPILL_RUNS,
    REDUCE_SPILLED_RECORDS,
    SHUFFLE_MODES,
    MultiprocessEngine,
    SerialEngine,
)
from repro.mapreduce.serialization import SizedPayload


class WordSplitMapper(Mapper):
    def map(self, key, value, context):
        for word in value.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


class FanOutMapper(Mapper):
    """Emit several keyed records per input so every partition gets data."""

    def map(self, key, value, context):
        for offset in range(4):
            context.emit((key + offset) % 8, value)


class CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sorted(v.tag for v in values))


class ByteLenReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(len(v) for v in values))


LINES = [
    "the quick brown fox",
    "the lazy dog",
    "the fox jumps over the lazy dog",
] * 4


def wordcount_job(**overrides):
    settings = dict(
        name="wordcount",
        mapper=WordSplitMapper,
        reducer=SumReducer,
        num_reducers=3,
    )
    settings.update(overrides)
    return Job(**settings)


def abs_distance(a, b):
    return abs(a - b)


class TestShuffleModeKnob:
    def test_direct_is_the_default(self):
        with MultiprocessEngine(max_workers=2) as engine:
            assert engine.shuffle_mode == "direct"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="shuffle_mode"):
            MultiprocessEngine(max_workers=2, shuffle_mode="carrier-pigeon")

    def test_modes_constant(self):
        assert set(SHUFFLE_MODES) == {"direct", "relay"}


class TestBitIdenticalAcrossPlanes:
    def run_all_planes(self, job_factory, records, **kwargs):
        serial = SerialEngine().run(job_factory(), records, **kwargs)
        with MultiprocessEngine(max_workers=2, shuffle_mode="relay") as engine:
            relay = engine.run(job_factory(), records, **kwargs)
        with MultiprocessEngine(max_workers=2, shuffle_mode="direct") as engine:
            direct = engine.run(job_factory(), records, **kwargs)
        return serial, relay, direct

    def test_wordcount_parity(self):
        serial, relay, direct = self.run_all_planes(
            wordcount_job, records_from(LINES), num_map_tasks=4
        )
        assert serial.records == relay.records == direct.records
        assert (
            serial.counters.as_dict()
            == relay.counters.as_dict()
            == direct.counters.as_dict()
        )

    def test_combiner_parity(self):
        serial, relay, direct = self.run_all_planes(
            lambda: wordcount_job(combiner=SumReducer),
            records_from(LINES),
            num_map_tasks=4,
        )
        assert serial.records == relay.records == direct.records
        assert serial.counters.as_dict() == direct.counters.as_dict()

    def test_payload_parity(self):
        # ndarray-free payloads with ties across map tasks: arrival-order
        # tie-breaks must match the relay plane exactly.
        records = [(i % 5, SizedPayload(200, tag=i)) for i in range(60)]
        serial, relay, direct = self.run_all_planes(
            lambda: Job(
                name="collect",
                mapper=FanOutMapper,
                reducer=CollectReducer,
                num_reducers=4,
            ),
            records,
            num_map_tasks=6,
        )
        assert serial.records == relay.records == direct.records

    @pytest.mark.parametrize(
        "scheme_factory",
        [lambda: DesignScheme(13), lambda: BlockScheme(12, 3)],
        ids=["design", "block"],
    )
    @pytest.mark.parametrize("path", ["run", "run_cached"])
    def test_pairwise_scheme_parity(self, scheme_factory, path):
        dataset = list(range(10, 10 + scheme_factory().v))

        def merged_with(engine):
            comp = PairwiseComputation(
                scheme_factory(), abs_distance, engine=engine
            )
            return getattr(comp, path)(dataset)

        serial = merged_with(SerialEngine())
        with MultiprocessEngine(max_workers=2, shuffle_mode="direct") as engine:
            direct = merged_with(engine)
        with MultiprocessEngine(max_workers=2, shuffle_mode="relay") as engine:
            relay = merged_with(engine)
        assert serial == direct == relay


class TestDriverBypassMetering:
    def big_shuffle_job(self):
        return Job(
            name="big-shuffle",
            mapper=FanOutMapper,
            reducer=ByteLenReducer,
            num_reducers=4,
        )

    def records(self):
        # Real payload bytes (not declared sizes): driver_bytes meters
        # what actually crossed the driver, so the relay volume must be
        # physically large for the bypass ratio to mean anything.
        return [(i, bytes([i % 251]) * 5_000) for i in range(100)]

    def test_direct_driver_bytes_are_manifest_sized(self):
        with MultiprocessEngine(max_workers=2, shuffle_mode="relay") as engine:
            engine.run(self.big_shuffle_job(), self.records(), num_map_tasks=5)
            relay_bytes = engine.stats.driver_bytes
        with MultiprocessEngine(max_workers=2, shuffle_mode="direct") as engine:
            engine.run(self.big_shuffle_job(), self.records(), num_map_tasks=5)
            direct_bytes = engine.stats.driver_bytes
            spilled = engine.stats.spill_bytes_written
        # Relay moves the full shuffle volume through the driver; direct
        # moves it to disk and only manifests cross the driver.
        assert relay_bytes > 10 * direct_bytes
        assert spilled > 0
        assert direct_bytes > 0

    def test_spill_files_metered_and_cleaned_up(self):
        with MultiprocessEngine(max_workers=2, shuffle_mode="direct") as engine:
            engine.run(self.big_shuffle_job(), self.records(), num_map_tasks=5)
            stats = engine.stats
            assert stats.spill_files_written > 0
            # The job's shuffle dir is removed with the job: nothing of it
            # survives in the engine's scratch space.
            tmpdir = engine._resources["tmpdir"].name
            leftovers = [
                name for name in os.listdir(tmpdir) if name.endswith("-shuffle")
            ]
            assert leftovers == []

    def test_relay_plane_writes_no_spill_files(self):
        with MultiprocessEngine(max_workers=2, shuffle_mode="relay") as engine:
            engine.run(self.big_shuffle_job(), self.records(), num_map_tasks=5)
            assert engine.stats.spill_files_written == 0
            assert engine.stats.spill_bytes_written == 0


class TestExternalSortOverSpillFiles:
    """Satellite: tiny spill_threshold_bytes forces multi-run merges of the
    spill-file stream inside pooled reduce tasks."""

    def spill_job(self, threshold, **overrides):
        settings = dict(
            name="spill",
            mapper=FanOutMapper,
            reducer=CollectReducer,
            num_reducers=2,
            config={"spill_threshold_bytes": threshold},
        )
        settings.update(overrides)
        return Job(**settings)

    def test_multi_run_merge_matches_serial(self):
        records = [(i, SizedPayload(500, tag=i)) for i in range(80)]
        serial = SerialEngine().run(self.spill_job(2000), records, num_map_tasks=4)
        with MultiprocessEngine(max_workers=2, shuffle_mode="direct") as engine:
            direct = engine.run(self.spill_job(2000), records, num_map_tasks=4)
        assert serial.records == direct.records
        assert serial.counters.as_dict() == direct.counters.as_dict()
        assert direct.counters.get(FRAMEWORK_GROUP, REDUCE_SPILL_RUNS) > 2
        assert direct.counters.get(FRAMEWORK_GROUP, REDUCE_SPILLED_RECORDS) > 0

    def test_retry_mid_merge_rebuilds_the_stream(self):
        # The reduce attempt crashes on its first attempt — after the
        # spill-file stream has been opened — and must succeed on a fresh
        # re-read of the same files.
        records = [(i, SizedPayload(500, tag=i)) for i in range(80)]
        plan = FaultPlan(faults=[CrashFault(task_kind="reduce", attempts=(1,))])
        failing = lambda: self.spill_job(  # noqa: E731 - tiny factory
            2000,
            config={"spill_threshold_bytes": 2000, "fault_plan": plan},
            max_attempts=2,
        )
        clean = SerialEngine().run(self.spill_job(2000), records, num_map_tasks=4)
        with MultiprocessEngine(max_workers=2, shuffle_mode="direct") as engine:
            retried = engine.run(failing(), records, num_map_tasks=4)
        assert retried.records == clean.records


@pytest.mark.faults
class TestDirectShuffleUnderWorkerDeath:
    def test_reducer_killed_mid_merge_recovers_bit_identical(self):
        # A worker-kill takes down the reducer's process while it merges
        # its spill files; the re-dispatched attempt re-reads the same
        # files from scratch and the job result is unchanged.
        import glob
        import tempfile

        # A killed reducer can never run its ExternalSorter.close(); the
        # engine must still not leak extsort scratch dirs into the system
        # temp dir (they belong under the job's shuffle dir, which the
        # engine sweeps).
        leak_pattern = os.path.join(tempfile.gettempdir(), "repro-extsort-*")
        leaks_before = len(glob.glob(leak_pattern))
        records = [(i, SizedPayload(500, tag=i)) for i in range(80)]

        def job(plan=None):
            config = {"spill_threshold_bytes": 2000}
            if plan is not None:
                config["fault_plan"] = plan
            return Job(
                name="kill-merge",
                mapper=FanOutMapper,
                reducer=CollectReducer,
                num_reducers=2,
                config=config,
                max_attempts=2,
            )

        clean = SerialEngine().run(job(), records, num_map_tasks=4)
        plan = FaultPlan(
            faults=[WorkerKillFault(task_kind="reduce", task_index=0, attempts=(1,))]
        )
        with MultiprocessEngine(max_workers=2, shuffle_mode="direct") as engine:
            survived = engine.run(job(plan), records, num_map_tasks=4)
            assert engine.stats.pool_restarts >= 1
        assert survived.records == clean.records
        # Settle briefly: an orphaned worker from an earlier kill test may
        # still be mid-task and holding a (soon to be cleaned) scratch dir.
        import time

        deadline = time.monotonic() + 5
        while (
            len(glob.glob(leak_pattern)) > leaks_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        assert len(glob.glob(leak_pattern)) <= leaks_before
