"""Fault injection, timeouts and recovery tests.

The parity tests assert the ISSUE's acceptance criterion: with any
absorbable :class:`FaultPlan`, the :class:`MultiprocessEngine`'s results
are bit-identical to a fault-free :class:`SerialEngine` run.
"""

import time
from pathlib import Path

import pytest

from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import results_matrix
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce.controlplane.attempts import AttemptTracker, backoff_seconds
from repro.mapreduce.counters import FRAMEWORK_GROUP
from repro.mapreduce.faults import (
    CrashFault,
    FaultPlan,
    InjectedCrash,
    InjectedWorkerDeath,
    PoisonedRecordError,
    PoisonFault,
    SlowFault,
    WorkerKillFault,
    _draw,
)
from repro.mapreduce.job import Job, Mapper, Reducer, TaskFailedError, TaskTimeoutError
from repro.mapreduce.runtime import (
    TASK_ATTEMPTS,
    TASK_RETRIES,
    TASKS_TIMED_OUT,
    MultiprocessEngine,
    SerialEngine,
)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


class SleepOnceMapper(Mapper):
    """Sleeps on the first attempt only (flag file survives attempts)."""

    def map(self, key, value, context):
        flag = Path(context.config["flag"])
        if not flag.exists():
            flag.write_text("slept")
            time.sleep(context.config["sleep_seconds"])
        context.emit(key, value)


def product(a, b):
    return a * b


RECORDS = [(i % 4, i) for i in range(16)]


def fault_job(plan, *, max_attempts=2, **config):
    config = {"fault_plan": plan, **config}
    return Job(
        name="faulty",
        reducer=SumReducer,
        num_reducers=2,
        config=config,
        max_attempts=max_attempts,
    )


def clean_run():
    return SerialEngine().run(
        Job(name="clean", reducer=SumReducer, num_reducers=2),
        RECORDS,
        num_map_tasks=4,
    )


class TestFaultPlan:
    def test_draw_is_deterministic_and_uniformish(self):
        assert _draw(7, "map", 3, "crash") == _draw(7, "map", 3, "crash")
        assert _draw(7, "map", 3, "crash") != _draw(8, "map", 3, "crash")
        draws = [_draw(0, "map", i, "crash") for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7

    def test_selectors(self):
        fault = CrashFault(task_kind="map", task_index=2, attempts=(1,))
        assert fault.applies("map", 2, 1)
        assert not fault.applies("reduce", 2, 1)
        assert not fault.applies("map", 3, 1)
        assert not fault.applies("map", 2, 2)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(slow_seconds=-1)

    def test_rates_only_fire_on_first_attempt(self):
        plan = FaultPlan(crash_rate=1.0)
        with pytest.raises(InjectedCrash):
            plan.fire("map", 0, 1)
        plan.fire("map", 0, 2)  # retries run clean

    def test_describe_mentions_rates(self):
        text = FaultPlan(crash_rate=0.25, seed=3).describe()
        assert "crash_rate=0.25" in text and "seed=3" in text


class TestSerialInjection:
    def test_crash_absorbed_by_retry_budget(self):
        plan = FaultPlan(faults=[CrashFault(task_kind="map", task_index=1)])
        result = SerialEngine().run(fault_job(plan), RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) == 1
        # 4 map + 2 reduce tasks, one of which took two attempts.
        assert result.counters.get(FRAMEWORK_GROUP, TASK_ATTEMPTS) == 7

    def test_crash_rate_absorbed(self):
        plan = FaultPlan(crash_rate=0.5, seed=11)
        result = SerialEngine().run(fault_job(plan), RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records

    def test_poisoned_record_retryable(self):
        plan = FaultPlan(
            faults=[PoisonFault(task_kind="map", task_index=0, record_index=2)]
        )
        result = SerialEngine().run(fault_job(plan), RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records

    def test_poison_without_retries_fails(self):
        plan = FaultPlan(faults=[PoisonFault(task_kind="map", task_index=0)])
        with pytest.raises(TaskFailedError) as info:
            SerialEngine().run(fault_job(plan, max_attempts=1), RECORDS, num_map_tasks=4)
        assert isinstance(info.value.cause, PoisonedRecordError)

    def test_worker_kill_degrades_to_failure_in_process(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="reduce", task_index=1)])
        result = SerialEngine().run(fault_job(plan), RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) == 1

    def test_permanent_fault_exhausts_attempts(self):
        plan = FaultPlan(faults=[CrashFault(task_kind="map", attempts=None)])
        with pytest.raises(TaskFailedError) as info:
            SerialEngine().run(fault_job(plan), RECORDS, num_map_tasks=4)
        assert isinstance(info.value.cause, InjectedCrash)
        assert len(info.value.causes) == 2


class TestTimeouts:
    def test_slow_attempt_fails_post_hoc_and_retries(self, tmp_path):
        job = Job(
            name="slow",
            mapper=SleepOnceMapper,
            reducer=SumReducer,
            num_reducers=1,
            config={
                "flag": str(tmp_path / "flag"),
                "sleep_seconds": 0.2,
                "task_timeout_seconds": 0.05,
            },
            max_attempts=2,
        )
        result = SerialEngine().run(job, RECORDS[:4], num_map_tasks=1)
        assert result.counters.get(FRAMEWORK_GROUP, TASKS_TIMED_OUT) == 1
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) == 1

    def test_injected_slow_fault_counts_as_attempt_time(self):
        plan = FaultPlan(faults=[SlowFault(task_kind="map", task_index=0, seconds=0.2)])
        result = SerialEngine().run(
            fault_job(plan, task_timeout_seconds=0.05),
            RECORDS,
            num_map_tasks=4,
        )
        assert result.records == clean_run().records
        assert result.counters.get(FRAMEWORK_GROUP, TASKS_TIMED_OUT) == 1

    def test_timeout_exhaustion_raises_timeout_cause(self):
        plan = FaultPlan(
            faults=[SlowFault(task_kind="map", task_index=0, seconds=0.1, attempts=None)]
        )
        with pytest.raises(TaskFailedError) as info:
            SerialEngine().run(
                fault_job(plan, task_timeout_seconds=0.02),
                RECORDS,
                num_map_tasks=4,
            )
        assert isinstance(info.value.cause, TaskTimeoutError)


class TestBackoff:
    def test_deterministic_and_growing(self):
        first = backoff_seconds(0.1, "map", 3, 2)
        assert first == backoff_seconds(0.1, "map", 3, 2)
        assert 0.05 <= first <= 0.1
        later = backoff_seconds(0.1, "map", 3, 4)
        assert 0.2 <= later <= 0.4

    def test_backoff_job_still_recovers(self):
        plan = FaultPlan(faults=[CrashFault(task_kind="map", task_index=2)])
        result = SerialEngine().run(
            fault_job(plan, retry_backoff_seconds=0.01),
            RECORDS,
            num_map_tasks=4,
        )
        assert result.records == clean_run().records


SCHEMES = [
    BroadcastScheme(12, 4),
    BlockScheme(12, 3),
    DesignScheme(13),
]


class TestEngineParityUnderFaults:
    """Absorbable plans leave pooled results bit-identical to fault-free serial."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_pairwise_parity_with_crash_rate(self, scheme):
        dataset = list(range(1, scheme.v + 1))
        baseline = PairwiseComputation(scheme, product).run(dataset)
        plan = FaultPlan(crash_rate=0.4, seed=5)
        with MultiprocessEngine(max_workers=2) as engine:
            faulty = PairwiseComputation(
                scheme,
                product,
                engine=engine,
                runtime_config={"fault_plan": plan},
                max_attempts=3,
            ).run(dataset)
        assert results_matrix(faulty) == results_matrix(baseline)

    def test_counter_parity_between_engines_same_plan(self):
        plan = FaultPlan(faults=[CrashFault(task_kind="map", task_index=1)])
        serial = SerialEngine().run(fault_job(plan), RECORDS, num_map_tasks=4)
        with MultiprocessEngine(max_workers=2) as engine:
            pooled = engine.run(fault_job(plan), RECORDS, num_map_tasks=4)
        assert serial.records == pooled.records
        assert serial.counters.as_dict() == pooled.counters.as_dict()


@pytest.fixture
def one_live_attempt(monkeypatch):
    """Fail any dispatch of a task that still has a non-terminal attempt.

    Yields the phase trackers seen, so a test can also read their histories.
    """
    trackers = []
    begin_dispatch = AttemptTracker.begin_dispatch

    def checked(self, index, **kwargs):
        if self not in trackers:
            trackers.append(self)
        alive = [a for a in self.history if a.task_index == index and not a.state.terminal]
        assert not alive, f"{self.kind} task {index} re-dispatched over live {alive}"
        return begin_dispatch(self, index, **kwargs)

    monkeypatch.setattr(AttemptTracker, "begin_dispatch", checked)
    return trackers


@pytest.mark.faults
class TestWorkerDeathRecovery:
    def test_injected_worker_kill_recovered(self, one_live_attempt):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=1)])
        expected = clean_run().records
        one_live_attempt.clear()  # keep the pooled run's two phases only
        with MultiprocessEngine(max_workers=2) as engine:
            result = engine.run(fault_job(plan), RECORDS, num_map_tasks=4)
            assert result.records == expected
            assert engine.stats.pool_restarts >= 1
            assert engine.stats.tasks_relaunched >= 1
        # At most one live attempt per task, at every dispatch (the fixture)
        # and at the end: the kill cost re-dispatches, each task won once,
        # and no attempt was left non-terminal.
        map_tracker, reduce_tracker = one_live_attempt
        assert len(map_tracker.history) > 4 and len(reduce_tracker.history) == 2
        for tracker in one_live_attempt:
            assert all(attempt.state.terminal for attempt in tracker.history)
            winners = [a.task_index for a in tracker.history if a.state.value == "SUCCEEDED"]
            assert sorted(winners) == list(range(tracker.num_tasks))
        # The lost attempt is charged in job counters like a worker-side
        # retry would be (same counter parity as the serial degradation).
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) >= 1

    def test_kill_without_retry_budget_fails(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=0)])
        with MultiprocessEngine(max_workers=2) as engine:
            with pytest.raises(TaskFailedError):
                engine.run(fault_job(plan, max_attempts=1), RECORDS, num_map_tasks=4)

    def test_pool_usable_after_recovery(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=0)])
        with MultiprocessEngine(max_workers=2) as engine:
            engine.run(fault_job(plan), RECORDS, num_map_tasks=4)
            clean = engine.run(
                Job(name="after", reducer=SumReducer, num_reducers=2),
                RECORDS,
                num_map_tasks=4,
            )
            assert clean.records == clean_run().records


@pytest.mark.faults
class TestDriverHangKill:
    def test_hung_attempt_killed_and_rerun(self, tmp_path, one_live_attempt):
        job = Job(
            name="hang",
            mapper=SleepOnceMapper,
            reducer=SumReducer,
            num_reducers=1,
            config={
                "flag": str(tmp_path / "flag"),
                "sleep_seconds": 30.0,
                "task_timeout_seconds": 0.2,
            },
            max_attempts=2,
        )
        with MultiprocessEngine(max_workers=2) as engine:
            result = engine.run(job, RECORDS[:4], num_map_tasks=1)
            assert engine.stats.tasks_timed_out >= 1
            assert engine.stats.pool_restarts >= 1
        expected = SerialEngine().run(
            Job(name="ref", reducer=SumReducer, num_reducers=1),
            RECORDS[:4],
            num_map_tasks=1,
        )
        assert result.records == expected.records
