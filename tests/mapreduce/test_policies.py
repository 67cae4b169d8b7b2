"""Scheduling policies: parity with the cluster scheduler, engine wiring,
the unified engine chooser, and the real-run trace round-trip."""

import json

import pytest

from repro.cluster.node import ClusterSpec, NodeSpec
from repro.cluster.scheduler import (
    TaskCost,
    cluster_slots,
    schedule_lpt,
    schedule_lpt_heterogeneous,
    schedule_round_robin,
)
from repro.cluster.trace import Trace
from repro.mapreduce.controlplane import (
    FifoPolicy,
    JsonlTraceSink,
    LptPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    Slot,
    resolve_policy,
)
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.runtime import (
    AUTO_SERIAL_MAX_RECORDS,
    MultiprocessEngine,
    SerialEngine,
    choose_engine,
)


def cluster(nodes=2, slots=2, rates=None):
    if rates is None:
        return ClusterSpec.homogeneous(nodes, NodeSpec(slots=slots))
    return ClusterSpec(nodes=[NodeSpec(slots=slots, eval_rate=r) for r in rates])


TASKS = [TaskCost(i, float((i * 7) % 5 + 1)) for i in range(12)]


class TestPolicyParityWithClusterScheduler:
    """The schedule_* wrappers and the policies must agree exactly."""

    def test_lpt_matches_schedule_lpt(self):
        c = cluster(3, 2)
        expected = schedule_lpt(TASKS, c)
        got = LptPolicy().assign(TASKS, cluster_slots(c))
        assert got.placement == expected.placement
        assert got.slot_loads == expected.slot_loads

    def test_lpt_heterogeneous_matches(self):
        c = cluster(2, 2, rates=[100.0, 300.0])
        expected = schedule_lpt_heterogeneous(TASKS, c)
        got = LptPolicy().assign(TASKS, cluster_slots(c, speed_aware=True))
        assert got.placement == expected.placement
        assert got.slot_loads == pytest.approx(expected.slot_loads)

    def test_round_robin_matches(self):
        c = cluster(2, 2)
        expected = schedule_round_robin(TASKS, c)
        got = RoundRobinPolicy().assign(TASKS, cluster_slots(c))
        assert got.placement == expected.placement

    def test_lpt_beats_round_robin_on_skew(self):
        skewed = [TaskCost(i, float(2**i % 97 + 1)) for i in range(16)]
        c = cluster(4, 1)
        assert (
            schedule_lpt(skewed, c).makespan
            <= schedule_round_robin(skewed, c).makespan
        )

    def test_blacklist_validation_preserved(self):
        c = cluster(2, 1)
        with pytest.raises(ValueError, match="outside cluster"):
            schedule_lpt(TASKS, c, blacklist=[9])
        with pytest.raises(ValueError, match="blacklisted"):
            schedule_lpt(TASKS, c, blacklist=[0, 1])


class TestPolicyProtocol:
    def test_fifo_order_is_id_order(self):
        assert FifoPolicy().dispatch_order(TASKS) == list(range(12))

    def test_lpt_order_is_descending_cost(self):
        order = LptPolicy().dispatch_order(TASKS)
        seconds = {t.task_id: t.seconds for t in TASKS}
        costs = [seconds[task_id] for task_id in order]
        assert costs == sorted(costs, reverse=True)

    def test_duplicate_ids_rejected(self):
        slots = [Slot(0, 0)]
        with pytest.raises(ValueError, match="unique"):
            FifoPolicy().assign([TaskCost(1, 1.0), TaskCost(1, 2.0)], slots)

    def test_assign_needs_slots(self):
        with pytest.raises(ValueError, match="zero slots"):
            LptPolicy().assign(TASKS, [])

    def test_resolve_policy(self):
        assert isinstance(resolve_policy(None), FifoPolicy)
        assert isinstance(resolve_policy("lpt"), LptPolicy)
        assert isinstance(resolve_policy("Round-Robin"), RoundRobinPolicy)
        lpt = LptPolicy()
        assert resolve_policy(lpt) is lpt
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            resolve_policy("nope")
        with pytest.raises(TypeError):
            resolve_policy(42)


class WordSplitMapper(Mapper):
    def map(self, key, value, context):
        for word in value.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


LINES = [
    "the quick brown fox",
    "the lazy dog",
    "the fox jumps over the lazy dog",
] * 4


def wordcount_job():
    return Job(
        name="wordcount", mapper=WordSplitMapper, reducer=SumReducer, num_reducers=3
    )


class TestEnginePolicyWiring:
    def test_outputs_bit_identical_across_policies(self):
        records = list(enumerate(LINES))
        baseline = None
        for policy in ("fifo", "lpt", "round_robin"):
            engine = SerialEngine(scheduling_policy=policy)
            result = engine.run(wordcount_job(), records, num_map_tasks=4)
            if baseline is None:
                baseline = result
            else:
                assert result.records == baseline.records
                assert result.counters.as_dict() == baseline.counters.as_dict()

    def test_pooled_outputs_match_serial_under_lpt(self):
        records = list(enumerate(LINES))
        serial = SerialEngine().run(wordcount_job(), records, num_map_tasks=4)
        with MultiprocessEngine(max_workers=2, scheduling_policy="lpt") as engine:
            pooled = engine.run(wordcount_job(), records, num_map_tasks=4)
        assert pooled.records == serial.records
        assert pooled.counters.as_dict() == serial.counters.as_dict()

    def test_both_engines_accept_policy_objects(self):
        policy = LptPolicy()
        assert SerialEngine(scheduling_policy=policy).scheduling_policy is policy
        with MultiprocessEngine(max_workers=2, scheduling_policy=policy) as engine:
            assert engine.scheduling_policy is policy

    def test_simulator_accepts_policy(self):
        from repro.core.block import BlockScheme
        from repro.cluster.simulator import ClusterSimulator

        scheme = BlockScheme(v=30, h=5)
        default = ClusterSimulator(cluster(2, 2)).simulate(scheme, 64)
        lpt = ClusterSimulator(cluster(2, 2), scheduling_policy="lpt").simulate(
            scheme, 64
        )
        assert lpt.measured.makespan_seconds == pytest.approx(
            default.measured.makespan_seconds
        )
        rr = ClusterSimulator(
            cluster(2, 2), scheduling_policy=RoundRobinPolicy()
        ).simulate(scheme, 64)
        assert rr.measured.makespan_seconds >= lpt.measured.makespan_seconds


class TestChooseEngine:
    def test_small_or_unknown_is_serial(self):
        assert isinstance(choose_engine(None), SerialEngine)
        assert isinstance(choose_engine(100), SerialEngine)

    def test_large_is_multiprocess(self):
        engine = choose_engine(AUTO_SERIAL_MAX_RECORDS, max_workers=2)
        try:
            assert isinstance(engine, MultiprocessEngine)
        finally:
            engine.close()

    def test_negative_hint_rejected(self):
        with pytest.raises(ValueError):
            choose_engine(-1)


class TestRealRunTraceRoundTrip:
    """Satellite: a real engine run's JSONL replays through Trace.gantt()."""

    def run_traced(self, engine_factory, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        records = list(enumerate(LINES))
        with engine_factory(sink) as engine:
            result = engine.run(wordcount_job(), records, num_map_tasks=4)
            stats = getattr(engine, "stats", None)
        assert sink.closed  # engine.close() closes the sink
        return path, result, stats

    def test_multiprocess_run_replays_as_trace(self, tmp_path):
        path, _result, stats = self.run_traced(
            lambda sink: MultiprocessEngine(max_workers=2, trace_sink=sink),
            tmp_path,
        )
        text = path.read_text()
        trace = Trace.from_json(text)
        # One span per succeeded attempt: 4 map + 3 reduce tasks.
        assert len(trace.spans) == 7
        assert len({span.task_id for span in trace.spans}) == 7
        # The timeline must agree with the engine's own wall-clock meter.
        assert 0 < trace.makespan <= stats.run_seconds + 0.05
        gantt = trace.gantt(width=60)
        assert gantt.count("|") >= 2  # rendered rows, no exceptions
        # Event lines really are the typed schema, not just spans.
        types = {
            json.loads(line).get("type")
            for line in text.splitlines()
            if line.strip()
        }
        assert {"AttemptTransition", "PhaseMarker", None} <= types

    def test_serial_run_replays_as_trace(self, tmp_path):
        path, _result, _stats = self.run_traced(
            lambda sink: SerialEngine(trace_sink=sink), tmp_path
        )
        trace = Trace.from_json(path.read_text())
        assert len(trace.spans) == 7
        assert trace.mean_utilization() > 0
