"""Fault injection, timeouts and recovery tests.

The parity tests assert the ISSUE's acceptance criterion: with any
absorbable :class:`FaultPlan`, the :class:`MultiprocessEngine`'s results
are bit-identical to a fault-free :class:`SerialEngine` run.
"""

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import results_matrix
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce import runtime
from repro.mapreduce.controlplane import (
    TASK_ATTEMPTS,
    TASK_RETRIES,
    TASKS_TIMED_OUT,
    AttemptTracker,
    JsonlTraceSink,
    backoff_seconds,
)
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
from repro.mapreduce.job import Job, Mapper, TaskFailedError, TaskTimeoutError, records_from
from repro.mapreduce.journal import JOURNAL_NAME, read_journal
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine

from .wordcount import EXPECTED_COUNTS, LINES, SumReducer, wordcount_job


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


FAULTY = Job(name="faulty", reducer=SumReducer, num_reducers=2)


def serial(plan, *, max_attempts=2, **retries):
    """A serial engine injecting ``plan`` under a retry budget."""
    return SerialEngine(fault_plan=plan, max_attempts=max_attempts, **retries)


def pooled(plan, *, max_attempts=2):
    """The same on a two-worker pool."""
    return MultiprocessEngine(max_workers=2, fault_plan=plan, max_attempts=max_attempts)


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
        result = serial(plan).run(FAULTY, RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) == 1
        # 4 map + 2 reduce tasks, one of which took two attempts.
        assert result.counters.get(FRAMEWORK_GROUP, TASK_ATTEMPTS) == 7

    def test_crash_rate_absorbed(self):
        plan = FaultPlan(crash_rate=0.5, seed=11)
        result = serial(plan).run(FAULTY, RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records

    def test_poisoned_record_retryable(self):
        plan = FaultPlan(
            faults=[PoisonFault(task_kind="map", task_index=0, record_index=2)]
        )
        result = serial(plan).run(FAULTY, RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records

    def test_poison_without_retries_fails(self):
        plan = FaultPlan(faults=[PoisonFault(task_kind="map", task_index=0)])
        with pytest.raises(TaskFailedError) as info:
            serial(plan, max_attempts=1).run(FAULTY, RECORDS, num_map_tasks=4)
        assert isinstance(info.value.cause, PoisonedRecordError)

    def test_worker_kill_degrades_to_failure_in_process(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="reduce", task_index=1)])
        result = serial(plan).run(FAULTY, RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) == 1

    def test_permanent_fault_exhausts_attempts(self):
        plan = FaultPlan(faults=[CrashFault(task_kind="map", attempts=None)])
        with pytest.raises(TaskFailedError) as info:
            serial(plan).run(FAULTY, RECORDS, num_map_tasks=4)
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
            },
        )
        engine = SerialEngine(max_attempts=2, task_timeout_seconds=0.05)
        result = engine.run(job, RECORDS[:4], num_map_tasks=1)
        assert result.counters.get(FRAMEWORK_GROUP, TASKS_TIMED_OUT) == 1
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) == 1

    def test_injected_slow_fault_counts_as_attempt_time(self):
        plan = FaultPlan(faults=[SlowFault(task_kind="map", task_index=0, seconds=0.2)])
        result = serial(plan, task_timeout_seconds=0.05).run(FAULTY, RECORDS, num_map_tasks=4)
        assert result.records == clean_run().records
        assert result.counters.get(FRAMEWORK_GROUP, TASKS_TIMED_OUT) == 1

    def test_timeout_exhaustion_raises_timeout_cause(self):
        plan = FaultPlan(
            faults=[SlowFault(task_kind="map", task_index=0, seconds=0.1, attempts=None)]
        )
        with pytest.raises(TaskFailedError) as info:
            serial(plan, task_timeout_seconds=0.02).run(FAULTY, RECORDS, num_map_tasks=4)
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
        result = serial(plan, retry_backoff_seconds=0.01).run(FAULTY, RECORDS, num_map_tasks=4)
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
        with pooled(plan, max_attempts=3) as engine:
            faulty = PairwiseComputation(scheme, product, engine=engine).run(dataset)
        assert results_matrix(faulty) == results_matrix(baseline)

    def test_counter_parity_between_engines_same_plan(self):
        plan = FaultPlan(faults=[CrashFault(task_kind="map", task_index=1)])
        serial_run = serial(plan).run(FAULTY, RECORDS, num_map_tasks=4)
        with pooled(plan) as engine:
            pool_run = engine.run(FAULTY, RECORDS, num_map_tasks=4)
        assert serial_run.records == pool_run.records
        assert serial_run.counters.as_dict() == pool_run.counters.as_dict()


#: map 0 crashes once and reduce 1 twice: five tasks take eight attempts
TRACED_PLAN = FaultPlan(
    faults=[
        CrashFault(task_kind="map", task_index=0),
        CrashFault(task_kind="reduce", task_index=1, attempts=(1, 2)),
    ]
)


def attempt_lines(records):
    """The AttemptTransition records of a trace or journal, without times."""
    return [
        {key: value for key, value in record.items() if key not in ("type", "time")}
        for record in records
        if record.get("type") == "AttemptTransition"
    ]


class TestTheTraceShowsEveryAttempt:
    """One retry loop, the driver's: every attempt is dispatched and ended on the bus."""

    @pytest.mark.parametrize("engine", ["serial", "pool"])
    def test_transitions_match_the_retry_counters(self, engine, tmp_path):
        trace = tmp_path / "trace.jsonl"
        settings = dict(
            fault_plan=TRACED_PLAN, max_attempts=3, trace_sink=JsonlTraceSink(trace)
        )
        if engine == "serial":
            built = SerialEngine(**settings)
        else:
            built = MultiprocessEngine(
                max_workers=2, journal_dir=tmp_path / "journal", **settings
            )
        with built:
            result = built.run(wordcount_job(), records_from(LINES), num_map_tasks=2)
        assert result.as_dict() == EXPECTED_COUNTS
        lines = attempt_lines(
            json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()
        )
        states = Counter(line["state"] for line in lines)
        assert states["DISPATCHED"] == result.counters.get(FRAMEWORK_GROUP, TASK_ATTEMPTS) == 8
        assert (
            states["FAILED"] + states["TIMED_OUT"]
            == result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES)
            == 3
        )
        won = [
            line["attempt"]
            for line in lines
            if (line["kind"], line["task_index"], line["state"]) == ("reduce", 1, "SUCCEEDED")
        ]
        assert won == [3]
        if engine == "pool":
            journaled = read_journal(tmp_path / "journal" / JOURNAL_NAME)
            assert attempt_lines(journaled) == lines


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


class BreaksOnThirdSubmit(ProcessPoolExecutor):
    """A pool whose third submit, counted across pools, finds it broken."""

    submits = 0

    def submit(self, *args, **kwargs):
        type(self).submits += 1
        if type(self).submits == 3:
            raise BrokenProcessPool("a worker died while the driver was submitting")
        return super().submit(*args, **kwargs)


@pytest.mark.faults
class TestWorkerDeathRecovery:
    def test_injected_worker_kill_recovered(self, one_live_attempt):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=1)])
        expected = clean_run().records
        one_live_attempt.clear()  # keep the pooled run's two phases only
        with pooled(plan) as engine:
            result = engine.run(FAULTY, RECORDS, num_map_tasks=4)
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

    def test_pool_broken_at_submit_is_restarted(self, monkeypatch, one_live_attempt):
        """A worker that dies while the driver still submits breaks ``submit``.

        That pool is restarted like one that breaks at completion, and the
        began-markers decide which attempts it cost.
        """
        monkeypatch.setattr(BreaksOnThirdSubmit, "submits", 0)
        monkeypatch.setattr(runtime, "ProcessPoolExecutor", BreaksOnThirdSubmit)
        with MultiprocessEngine(max_workers=2, max_attempts=2) as engine:
            result = engine.run(FAULTY, RECORDS, num_map_tasks=4)
            assert engine.stats.pool_restarts >= 1
        assert result.records == SerialEngine().run(FAULTY, RECORDS, num_map_tasks=4).records
        for tracker in one_live_attempt:
            assert all(attempt.state.terminal for attempt in tracker.history)

    def test_kill_without_retry_budget_fails(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=0)])
        with pooled(plan, max_attempts=1) as engine:
            with pytest.raises(TaskFailedError):
                engine.run(FAULTY, RECORDS, num_map_tasks=4)

    def test_pool_usable_after_recovery(self):
        plan = FaultPlan(faults=[WorkerKillFault(task_kind="map", task_index=0)])
        with pooled(plan) as engine:
            engine.run(FAULTY, RECORDS, num_map_tasks=4)
            # The plan is the engine's, so the next job is injected too.
            again = engine.run(
                Job(name="after", reducer=SumReducer, num_reducers=2),
                RECORDS,
                num_map_tasks=4,
            )
            assert again.records == clean_run().records


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
            },
        )
        with MultiprocessEngine(max_workers=2, max_attempts=2, task_timeout_seconds=0.2) as engine:
            result = engine.run(job, RECORDS[:4], num_map_tasks=1)
            assert engine.stats.tasks_timed_out >= 1
            assert engine.stats.pool_restarts >= 1
        expected = SerialEngine().run(
            Job(name="ref", reducer=SumReducer, num_reducers=1),
            RECORDS[:4],
            num_map_tasks=1,
        )
        assert result.records == expected.records
