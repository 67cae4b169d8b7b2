"""Task-retry (fault tolerance) tests."""

import math
from pathlib import Path

import pytest

from repro.mapreduce import runtime
from repro.mapreduce.counters import FRAMEWORK_GROUP
from repro.mapreduce.job import Job, Mapper, Reducer, TaskFailedError
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine


class FlakyMapper(Mapper):
    """Fails until a flag file exists (state survives across attempts
    and across processes)."""

    def map(self, key, value, context):
        flag = Path(context.config["flag"])
        if not flag.exists():
            flag.write_text("tripped")
            raise RuntimeError("transient failure")
        context.emit(key, value)


class AlwaysFailMapper(Mapper):
    def map(self, key, value, context):
        raise RuntimeError("permanent failure")


class FlakyReducer(Reducer):
    def reduce(self, key, values, context):
        flag = Path(context.config["flag"])
        values = list(values)
        if not flag.exists():
            flag.write_text("tripped")
            raise RuntimeError("reduce hiccup")
        context.emit(key, sum(values))


class TestRetries:
    def test_transient_map_failure_recovers(self, tmp_path):
        job = Job(
            name="flaky",
            mapper=FlakyMapper,
            config={"flag": str(tmp_path / "flag")},
        )
        result = SerialEngine(max_attempts=3).run(job, [(1, "a")], num_map_tasks=1)
        assert result.records == [(1, "a")]
        assert result.counters.get(FRAMEWORK_GROUP, "task_retries") == 1

    def test_transient_reduce_failure_recovers(self, tmp_path):
        job = Job(
            name="flaky-reduce",
            reducer=FlakyReducer,
            config={"flag": str(tmp_path / "flag")},
        )
        result = SerialEngine(max_attempts=2).run(job, [(1, 2), (1, 3)], num_map_tasks=1)
        assert result.records == [(1, 5)]

    def test_permanent_failure_raises_after_attempts(self, tmp_path):
        job = Job(name="dead", mapper=AlwaysFailMapper)
        with pytest.raises(TaskFailedError) as info:
            SerialEngine(max_attempts=3).run(job, [(1, "a")], num_map_tasks=1)
        assert info.value.attempts == 3
        assert isinstance(info.value.cause, RuntimeError)

    def test_default_single_attempt(self):
        job = Job(name="dead", mapper=AlwaysFailMapper)
        with pytest.raises(TaskFailedError) as info:
            SerialEngine().run(job, [(1, "a")], num_map_tasks=1)
        assert info.value.attempts == 1

    def test_failed_attempt_side_effects_discarded(self, tmp_path):
        """A failed attempt's emitted records never reach the output."""

        class EmitThenFail(Mapper):
            def map(self, key, value, context):
                context.emit("garbage", "from failed attempt")
                flag = Path(context.config["flag"])
                if not flag.exists():
                    flag.write_text("x")
                    raise RuntimeError("boom after emitting")
                context.emit(key, value)

        job = Job(
            name="dirty",
            mapper=EmitThenFail,
            reducer=None,
            num_reducers=0,
            config={"flag": str(tmp_path / "flag")},
        )
        result = SerialEngine(max_attempts=2).run(job, [(1, "clean")], num_map_tasks=1)
        # The successful attempt emits garbage+clean; the failed attempt's
        # records are gone (only one garbage record, not two).
        assert result.records == [("garbage", "from failed attempt"), (1, "clean")]

    def test_multiprocess_retry(self, tmp_path):
        job = Job(
            name="flaky-mp",
            mapper=FlakyMapper,
            config={"flag": str(tmp_path / "flag")},
        )
        result = MultiprocessEngine(max_workers=2, max_attempts=3).run(
            job, [(1, "a"), (2, "b")], num_map_tasks=2
        )
        assert sorted(result.records) == [(1, "a"), (2, "b")]

    def test_bad_max_attempts(self):
        with pytest.raises(ValueError):
            SerialEngine(max_attempts=0)


#: retry settings no engine accepts: each fails its range check by name
BAD_RETRIES = [
    ("max_attempts", 0),
    ("task_timeout_seconds", 0),
    ("task_timeout_seconds", -1.0),
    ("task_timeout_seconds", math.nan),
    ("task_timeout_seconds", math.inf),
    ("retry_backoff_seconds", -0.5),
    ("retry_backoff_seconds", math.nan),
    ("retry_backoff_seconds", math.inf),
    ("retry_backoff_seconds", "soon"),
]


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("name,value", BAD_RETRIES)
def test_bad_retry_settings_fail_at_construction(engine, name, value, tmp_path, monkeypatch):
    """Checked once, when the engine is built: before any pool or directory exists.

    Unchecked, a nan timeout switched the timeout off and the rest failed
    only inside the first task.
    """

    def no_pool(*args, **kwargs):
        pytest.fail("an engine with bad retry settings started a pool")

    monkeypatch.setattr(runtime, "ProcessPoolExecutor", no_pool)
    journal = tmp_path / "journal"
    with pytest.raises(ValueError, match=name):
        if engine == "serial":
            SerialEngine(**{name: value})
        else:
            MultiprocessEngine(max_workers=2, journal_dir=journal, **{name: value})
    assert not journal.exists()


class TestFailureAccounting:
    def test_task_failures_counter_on_recovery(self, tmp_path):
        job = Job(
            name="flaky",
            mapper=FlakyMapper,
            config={"flag": str(tmp_path / "flag")},
        )
        result = SerialEngine(max_attempts=3).run(job, [(1, "a")], num_map_tasks=1)
        assert result.counters.get(FRAMEWORK_GROUP, "task_retries") == 1

    def test_no_failure_counters_on_clean_run(self):
        job = Job(name="clean", mapper=Mapper, reducer=None, num_reducers=0)
        result = SerialEngine().run(job, [(1, "a")], num_map_tasks=1)
        assert result.counters.get(FRAMEWORK_GROUP, "task_retries") == 0

    def test_all_attempt_errors_preserved_and_chained(self):
        job = Job(name="dead", mapper=AlwaysFailMapper)
        with pytest.raises(TaskFailedError) as info:
            SerialEngine(max_attempts=3).run(job, [(1, "a")], num_map_tasks=1)
        error = info.value
        assert len(error.causes) == 3
        assert error.cause is error.causes[-1]
        # Attempt n chains to attempt n-1: the whole retry history is one
        # traceback walk away.
        assert error.causes[2].__cause__ is error.causes[1]
        assert error.causes[1].__cause__ is error.causes[0]
        assert error.__cause__ is error.causes[-1]

    def test_task_failed_error_survives_process_boundary(self):
        """TaskFailedError pickles with its metadata (worker -> driver)."""
        import pickle

        original = TaskFailedError(
            "map", 2, RuntimeError("boom"), causes=[ValueError("x"), RuntimeError("boom")]
        )
        restored = pickle.loads(pickle.dumps(original))
        assert restored.task_kind == "map"
        assert restored.attempts == 2
        assert isinstance(restored.cause, RuntimeError)
        assert len(restored.causes) == 2

    def test_multiprocess_permanent_failure_reports_attempts(self):
        job = Job(name="dead-mp", mapper=AlwaysFailMapper)
        with pytest.raises(TaskFailedError) as info:
            MultiprocessEngine(max_workers=2, max_attempts=2).run(
                job, [(1, "a"), (2, "b")], num_map_tasks=2
            )
        assert info.value.attempts == 2
