"""Persistent-pool engine: broadcast-once, streaming shuffle, spill path."""

import pytest

from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    MAP_OUTPUT_BYTES,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
)
from repro.mapreduce.job import Job, Mapper, Reducer, records_from
from repro.mapreduce.runtime import (
    DEFAULT_RECORDS_PER_SPLIT,
    REDUCE_SPILL_RUNS,
    REDUCE_SPILLED_RECORDS,
    MultiprocessEngine,
    SerialEngine,
)
from repro.mapreduce.serialization import SizedPayload
from repro.mapreduce.shm import shm_available


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


def run_both(job_factory, records, **kwargs):
    """Run the same job on both engines; returns (serial, pooled) results."""
    serial = SerialEngine().run(job_factory(), records, **kwargs)
    with MultiprocessEngine(max_workers=2) as engine:
        pooled = engine.run(job_factory(), records, **kwargs)
    return serial, pooled


class TestBitIdenticalResults:
    def test_records_and_counters_match(self):
        serial, pooled = run_both(wordcount_job, records_from(LINES), num_map_tasks=4)
        assert serial.records == pooled.records  # exact order, not just content
        assert serial.counters.as_dict() == pooled.counters.as_dict()

    def test_combiner_path_matches(self):
        serial, pooled = run_both(
            lambda: wordcount_job(combiner=SumReducer),
            records_from(LINES),
            num_map_tasks=4,
        )
        assert serial.records == pooled.records
        assert serial.counters.as_dict() == pooled.counters.as_dict()

    def test_map_only_matches(self):
        serial, pooled = run_both(
            lambda: wordcount_job(reducer=None, num_reducers=0),
            records_from(LINES),
            num_map_tasks=4,
        )
        assert serial.records == pooled.records
        assert serial.counters.as_dict() == pooled.counters.as_dict()


class TestBroadcastOncePerWorker:
    def test_cache_loaded_exactly_once_per_worker(self):
        job = Job(
            name="bc",
            mapper=WordSplitMapper,
            reducer=SumReducer,
            num_reducers=4,
            cache={"blob": list(range(10_000))},
        )
        with MultiprocessEngine(max_workers=2) as engine:
            engine.run(job, records_from(LINES), num_map_tasks=12)
            stats = engine.stats
            # One localization per distinct worker that ran a task — never
            # once per task (12 map + 4 reduce tasks here).
            assert stats.jobs_broadcast == 1
            assert 1 <= stats.broadcast_loads <= 2
            assert stats.broadcast_loads == len(stats.worker_pids)
            assert stats.tasks_dispatched == 16

    def test_pool_persists_across_jobs(self):
        with MultiprocessEngine(max_workers=2) as engine:
            first_job = wordcount_job(name="first")
            second_job = wordcount_job(name="second")
            engine.run(first_job, records_from(LINES), num_map_tasks=6)
            pids_after_first = set(engine.stats.worker_pids)
            engine.run(second_job, records_from(LINES), num_map_tasks=6)
            assert engine.stats.pools_created == 1  # same pool, both jobs
            assert engine.stats.jobs_broadcast == 2  # one broadcast per job
            assert engine.stats.worker_pids == pids_after_first

    def test_specs_do_not_ship_the_cache(self):
        cache = {"blob": b"x" * 200_000}
        job = Job(
            name="slim-specs",
            mapper=WordSplitMapper,
            reducer=SumReducer,
            num_reducers=2,
            cache=cache,
        )
        with MultiprocessEngine(max_workers=2) as engine:
            engine.run(job, records_from(LINES), num_map_tasks=8)
            stats = engine.stats
            # The 200 KB cache appears once in the broadcast, and the task
            # specs together stay far below one cache copy per task.
            assert stats.broadcast_bytes >= 200_000
            assert stats.broadcast_bytes < 2 * 200_000
            assert stats.spec_bytes < 200_000


class ResidentJobsMapper(Mapper):
    """Probe: how many jobs (and shm attachments) this worker still holds."""

    def map(self, key, value, context):
        from repro.mapreduce import shm, tasks

        context.emit(len(tasks._WORKER_JOBS), len(shm._ATTACHED))


@pytest.mark.parametrize(
    "plane",
    [
        "default",
        pytest.param(
            "shm",
            marks=[
                pytest.mark.shm,
                pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable"),
            ],
        ),
    ],
)
def test_workers_let_go_of_released_jobs(plane):
    """Resident stores are bounded by the jobs in flight, not by a cap of 8."""
    with MultiprocessEngine(max_workers=2, data_plane=plane) as engine:
        for index in range(10):
            job = wordcount_job(name=f"cached-{index}", cache={"blob": list(range(1000))})
            engine.run(job, records_from(LINES), num_map_tasks=4)
        probe = Job(name="probe", mapper=ResidentJobsMapper, reducer=None)
        resident = engine.run(probe, records_from(LINES), num_map_tasks=4).records
    assert resident and all(jobs <= 2 and segments <= 2 for jobs, segments in resident)


class TestStreamingShuffleAccounting:
    def test_shuffle_bytes_equal_map_output_bytes_without_combiner(self):
        serial, pooled = run_both(wordcount_job, records_from(LINES), num_map_tasks=4)
        for result in (serial, pooled):
            counters = result.counters
            assert counters.get(FRAMEWORK_GROUP, SHUFFLE_BYTES) == counters.get(
                FRAMEWORK_GROUP, MAP_OUTPUT_BYTES
            )
            assert counters.get(FRAMEWORK_GROUP, SHUFFLE_BYTES) > 0

    def test_declared_sizes_drive_shuffle_bytes(self):
        records = [(i, SizedPayload(1000, tag=i)) for i in range(8)]
        job = Job(name="sized", reducer=SumReducerLess, num_reducers=2)
        result = SerialEngine().run(job, records, num_map_tasks=2)
        counters = result.counters
        assert counters.get(FRAMEWORK_GROUP, SHUFFLE_RECORDS) == 8
        # 8 records × (8 B int key + 1000 B declared payload)
        assert counters.get(FRAMEWORK_GROUP, SHUFFLE_BYTES) == 8 * 1008


class SumReducerLess(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(v.size_bytes for v in values))


class TestSpillPath:
    def spill_job(self, threshold):
        return Job(
            name="spill",
            mapper=FanOutMapper,
            reducer=CollectReducer,
            num_reducers=2,
            config={"spill_threshold_bytes": threshold},
        )

    def test_spill_results_match_in_memory(self):
        records = [(i, SizedPayload(500, tag=i)) for i in range(40)]
        spilled = SerialEngine().run(self.spill_job(2000), records, num_map_tasks=4)
        in_memory = SerialEngine().run(
            self.spill_job(10**9), records, num_map_tasks=4
        )
        assert spilled.records == in_memory.records
        assert spilled.counters.get(FRAMEWORK_GROUP, REDUCE_SPILLED_RECORDS) > 0
        assert spilled.counters.get(FRAMEWORK_GROUP, REDUCE_SPILL_RUNS) > 0
        assert in_memory.counters.get(FRAMEWORK_GROUP, REDUCE_SPILLED_RECORDS) == 0

    def test_spill_bit_identical_across_engines(self):
        records = [(i, SizedPayload(500, tag=i)) for i in range(40)]
        serial = SerialEngine().run(self.spill_job(2000), records, num_map_tasks=4)
        with MultiprocessEngine(max_workers=2) as engine:
            pooled = engine.run(self.spill_job(2000), records, num_map_tasks=4)
        assert serial.records == pooled.records
        assert serial.counters.as_dict() == pooled.counters.as_dict()


class CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sorted(v.tag for v in values))


class FailingMapper(Mapper):
    def map(self, key, value, context):
        raise RuntimeError("stage goes down")


class TestPoolReuseAfterFailure:
    """A failed job must not corrupt the persistent pool for the next one."""

    def test_pool_and_broadcast_survive_task_failed_error(self):
        from repro.mapreduce.job import TaskFailedError

        with MultiprocessEngine(max_workers=2) as engine:
            bad = Job(name="bad", mapper=FailingMapper, reducer=None, num_reducers=0)
            with pytest.raises(TaskFailedError):
                engine.run(bad, records_from(LINES), num_map_tasks=4)
            # Same pool, fresh broadcast: the next job's cache localizes
            # cleanly and produces correct output.
            good = Job(
                name="good",
                mapper=WordSplitMapper,
                reducer=SumReducer,
                num_reducers=3,
                cache={"blob": list(range(1000))},
            )
            pooled = engine.run(good, records_from(LINES), num_map_tasks=4)
            assert engine.stats.pools_created == 1
            assert engine.stats.jobs_broadcast == 2
        serial = SerialEngine().run(
            wordcount_job(cache={"blob": list(range(1000))}),
            records_from(LINES),
            num_map_tasks=4,
        )
        assert pooled.records == serial.records

    def test_pipeline_failure_names_stage_and_engine_stays_usable(self):
        from repro.mapreduce.job import TaskFailedError
        from repro.mapreduce.pipeline import Pipeline

        with MultiprocessEngine(max_workers=2) as engine:
            chain = Pipeline(
                [
                    wordcount_job(name="stage-0"),
                    Job(name="stage-1", mapper=FailingMapper, reducer=None, num_reducers=0),
                ],
                engine=engine,
            )
            with pytest.raises(TaskFailedError) as info:
                chain.run(records_from(LINES), num_map_tasks=4)
            assert info.value.stage_index == 1
            assert info.value.job_name == "stage-1"
            result = Pipeline([wordcount_job()], engine=engine).run(
                records_from(LINES), num_map_tasks=4
            )
        serial = SerialEngine().run(wordcount_job(), records_from(LINES), num_map_tasks=4)
        assert result.records == serial.records


class TestRecordsPerSplitConfig:
    def test_default_constant(self):
        records = records_from(["x"] * (DEFAULT_RECORDS_PER_SPLIT * 2))
        result = SerialEngine().run(wordcount_job(), records)
        assert result.num_map_tasks == 2

    def test_config_override(self):
        job = wordcount_job(config={"records_per_split": 3})
        result = SerialEngine().run(job, records_from(LINES))
        assert result.num_map_tasks == len(LINES) // 3

    def test_explicit_num_map_tasks_wins(self):
        job = wordcount_job(config={"records_per_split": 3})
        result = SerialEngine().run(job, records_from(LINES), num_map_tasks=2)
        assert result.num_map_tasks == 2

    def test_invalid_records_per_split(self):
        job = wordcount_job(config={"records_per_split": 0})
        with pytest.raises(ValueError, match="records_per_split"):
            SerialEngine().run(job, records_from(LINES))
