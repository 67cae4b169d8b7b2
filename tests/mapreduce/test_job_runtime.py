"""Job/engine tests: the classic MR contract (wordcount et al.)."""

import pytest

from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
)
from repro.mapreduce.job import (
    Context,
    IdentityMapper,
    Job,
    Mapper,
    Reducer,
    records_from,
)
from repro.mapreduce.runtime import (
    AUTO_SERIAL_MAX_RECORDS,
    MultiprocessEngine,
    SerialEngine,
    choose_engine,
)
from repro.mapreduce.splits import split_by_count

from .wordcount import (
    EXPECTED_COUNTS,
    LINES,
    SumReducer,
    WordSplitMapper,
    wordcount_job,
)


class SetupCleanupMapper(Mapper):
    """Counts lifecycle hooks through counters."""

    def setup(self, context):
        context.counters.increment("lifecycle", "setup")

    def map(self, key, value, context):
        context.emit(key, value)

    def cleanup(self, context):
        context.counters.increment("lifecycle", "cleanup")


class CacheReadingMapper(Mapper):
    def map(self, key, value, context):
        factor = context.cache_file("factor")
        context.emit(key, value * factor)


class TestWordCount:
    def test_serial(self):
        result = SerialEngine().run(wordcount_job(), records_from(LINES))
        assert result.as_dict() == EXPECTED_COUNTS

    def test_multiprocess_matches_serial(self):
        serial = SerialEngine().run(
            wordcount_job(), records_from(LINES), num_map_tasks=3
        )
        parallel = MultiprocessEngine(max_workers=2).run(
            wordcount_job(), records_from(LINES), num_map_tasks=3
        )
        assert dict(serial.records) == dict(parallel.records)
        # Framework counters agree too (same record movement).
        assert serial.counters.get(FRAMEWORK_GROUP, SHUFFLE_RECORDS) == \
            parallel.counters.get(FRAMEWORK_GROUP, SHUFFLE_RECORDS)

    def test_single_reducer(self):
        result = SerialEngine().run(wordcount_job(num_reducers=1), records_from(LINES))
        assert result.as_dict() == EXPECTED_COUNTS

    def test_many_reducers(self):
        result = SerialEngine().run(wordcount_job(num_reducers=16), records_from(LINES))
        assert result.as_dict() == EXPECTED_COUNTS
        assert result.num_reduce_tasks == 16


class TestCounters:
    def test_framework_counter_values(self):
        result = SerialEngine().run(
            wordcount_job(), records_from(LINES), num_map_tasks=2
        )
        c = result.counters
        assert c.get(FRAMEWORK_GROUP, MAP_INPUT_RECORDS) == 3
        assert c.get(FRAMEWORK_GROUP, MAP_OUTPUT_RECORDS) == 14  # total words
        assert c.get(FRAMEWORK_GROUP, SHUFFLE_RECORDS) == 14
        assert c.get(FRAMEWORK_GROUP, REDUCE_INPUT_GROUPS) == len(EXPECTED_COUNTS)
        assert c.get(FRAMEWORK_GROUP, SHUFFLE_BYTES) > 0

    def test_lifecycle_hooks_once_per_task(self):
        job = Job(name="lc", mapper=SetupCleanupMapper, reducer=SumReducer)
        records = [(i, i) for i in range(6)]
        result = SerialEngine().run(job, records, num_map_tasks=3)
        assert result.counters.get("lifecycle", "setup") == 3
        assert result.counters.get("lifecycle", "cleanup") == 3


class TestJobValidation:
    def test_map_only_requires_no_reducer(self):
        with pytest.raises(ValueError):
            Job(name="bad", num_reducers=0)  # default reducer present

    def test_negative_reducers_rejected(self):
        with pytest.raises(ValueError):
            Job(name="bad", num_reducers=-1)


class TestMapOnly:
    def test_map_only_passthrough(self):
        job = Job(name="m", mapper=WordSplitMapper, reducer=None, num_reducers=0)
        result = SerialEngine().run(job, records_from(LINES))
        assert result.num_reduce_tasks == 0
        assert sorted(result.records)[0] == ("brown", 1)
        assert len(result.records) == 14


class FirstValueReducer(Reducer):
    """Emits only the first value per group — order-sensitive on purpose."""

    def reduce(self, key, values, context):
        context.emit(key, next(iter(values)))


class TestSecondarySort:
    """There is no secondary sort: a group's values reach reduce in arrival order."""

    def test_without_value_sort_order_is_arrival(self):
        job = Job(name="plain", reducer=FirstValueReducer)
        result = SerialEngine().run(job, [("k", 9), ("k", 1)], num_map_tasks=1)
        assert result.as_dict() == {"k": 9}


class TestDistributedCache:
    def test_cache_available_in_tasks(self):
        job = Job(
            name="cached",
            mapper=CacheReadingMapper,
            reducer=SumReducer,
            cache={"factor": 10},
        )
        result = SerialEngine().run(job, [(1, 1), (1, 2), (2, 3)])
        assert result.as_dict() == {1: 30, 2: 30}

    def test_missing_cache_entry_raises_keyerror(self):
        context = Context(counters=None, cache={"a": 1})
        with pytest.raises(KeyError, match="available"):
            context.cache_file("b")


class TestEngineInput:
    def test_requires_exactly_one_input_form(self):
        engine = SerialEngine()
        with pytest.raises(ValueError):
            engine.run(wordcount_job())
        with pytest.raises(ValueError):
            engine.run(
                wordcount_job(),
                records_from(LINES),
                splits=split_by_count(records_from(LINES), 2),
            )

    def test_prebuilt_splits(self):
        engine = SerialEngine()
        result = engine.run(
            wordcount_job(), splits=split_by_count(records_from(LINES), 2)
        )
        assert result.as_dict() == EXPECTED_COUNTS
        assert result.num_map_tasks == 2

    def test_identity_defaults(self):
        job = Job(name="id", mapper=IdentityMapper)
        result = SerialEngine().run(job, [(1, "a"), (2, "b")])
        assert sorted(result.records) == [(1, "a"), (2, "b")]

    def test_multiprocess_bad_workers(self):
        with pytest.raises(ValueError):
            MultiprocessEngine(max_workers=0)


class TestEngineAuto:
    def test_small_workload_serial(self):
        assert isinstance(choose_engine(100), SerialEngine)
        assert isinstance(choose_engine(AUTO_SERIAL_MAX_RECORDS - 1), SerialEngine)

    def test_unknown_workload_serial(self):
        assert isinstance(choose_engine(), SerialEngine)
        assert isinstance(choose_engine(None), SerialEngine)

    def test_large_workload_pooled(self):
        engine = choose_engine(AUTO_SERIAL_MAX_RECORDS, max_workers=2)
        try:
            assert isinstance(engine, MultiprocessEngine)
        finally:
            engine.close()

    def test_negative_hint_rejected(self):
        with pytest.raises(ValueError):
            choose_engine(-1)
