"""Execution trace / Gantt tests."""

import pytest

from repro.cluster.node import ClusterSpec, NodeSpec
from repro.cluster.scheduler import TaskCost
from repro.cluster.trace import Trace, TaskSpan, build_trace


def cluster(nodes=2, slots=1):
    return ClusterSpec.homogeneous(nodes, NodeSpec(slots=slots))


def sample_trace():
    tasks = [TaskCost(i, float(i % 3 + 1)) for i in range(8)]
    return build_trace(tasks, cluster(2, 2)), tasks


class TestBuildTrace:
    def test_all_tasks_present(self):
        trace, tasks = sample_trace()
        assert sorted(span.task_id for span in trace.spans) == [t.task_id for t in tasks]

    def test_durations_match_costs(self):
        trace, tasks = sample_trace()
        cost = {t.task_id: t.seconds for t in tasks}
        for span in trace.spans:
            assert span.duration == pytest.approx(cost[span.task_id])

    def test_no_overlap_within_slot(self):
        trace, _tasks = sample_trace()
        for node in (0, 1):
            for slot in (0, 1):
                spans = trace.spans_on(node, slot)
                for earlier, later in zip(spans, spans[1:]):
                    assert later.start >= earlier.end - 1e-12

    def test_makespan_matches_lpt(self):
        from repro.cluster.scheduler import cluster_slots, place

        tasks = [TaskCost(i, float((i * 7) % 5 + 1)) for i in range(12)]
        c = cluster(3, 1)
        trace = build_trace(tasks, c)
        assert trace.makespan == pytest.approx(place(tasks, cluster_slots(c)).makespan)

    def test_empty_tasks(self):
        trace = build_trace([], cluster())
        assert trace.makespan == 0.0
        assert trace.gantt() == "(empty trace)"


class TestUtilization:
    def test_perfectly_packed(self):
        tasks = [TaskCost(i, 2.0) for i in range(4)]
        trace = build_trace(tasks, cluster(2, 2))
        util = trace.utilization()
        assert all(value == pytest.approx(1.0) for value in util.values())
        assert trace.mean_utilization() == pytest.approx(1.0)

    def test_idle_slots_lower_mean(self):
        tasks = [TaskCost(0, 10.0), TaskCost(1, 1.0)]
        trace = build_trace(tasks, cluster(2, 1))
        assert trace.mean_utilization() < 1.0


class TestExport:
    def test_json_roundtrip(self):
        trace, _tasks = sample_trace()
        restored = Trace.from_json(trace.to_json())
        assert sorted(restored.spans, key=lambda s: s.task_id) == sorted(
            trace.spans, key=lambda s: s.task_id
        )

    def test_gantt_has_one_row_per_slot(self):
        trace, _tasks = sample_trace()
        lines = trace.gantt(width=40).splitlines()
        slot_rows = [line for line in lines if line.startswith("n")]
        assert len(slot_rows) == 4  # 2 nodes × 2 slots

    def test_gantt_width_validation(self):
        trace, _tasks = sample_trace()
        with pytest.raises(ValueError):
            trace.gantt(width=5)

    def test_gantt_contains_task_digits(self):
        trace = Trace(spans=[TaskSpan(7, 0, 0, 0.0, 5.0)])
        assert "7" in trace.gantt(width=20)


class TestSlotInventory:
    def test_empty_trace_roundtrip_keeps_slots(self):
        trace = Trace(spans=[], slots=[(0, 0), (0, 1), (1, 0)])
        restored = Trace.from_json(trace.to_json())
        assert restored.slots == [(0, 0), (0, 1), (1, 0)]
        assert restored.spans == []
        assert restored.utilization() == {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0}

    def test_single_span_roundtrip(self):
        trace = Trace(spans=[TaskSpan(3, 1, 0, 0.0, 2.5)], slots=[(0, 0), (1, 0)])
        restored = Trace.from_json(trace.to_json())
        assert restored.spans == trace.spans
        assert restored.slots == [(0, 0), (1, 0)]
        # The idle inventoried slot shows up as zero utilization.
        assert restored.utilization()[(0, 0)] == 0.0

    def test_single_bare_span_document(self):
        restored = Trace.from_json(
            '{"task": 1, "node": 0, "slot": 2, "start": 0.0, "end": 1.0}'
        )
        assert restored.spans == [TaskSpan(1, 0, 2, 0.0, 1.0)]

    def test_legacy_span_array_still_loads(self):
        legacy = '[{"task": 1, "node": 0, "slot": 0, "start": 0.0, "end": 1.0}]'
        restored = Trace.from_json(legacy)
        assert restored.spans == [TaskSpan(1, 0, 0, 0.0, 1.0)]
        assert restored.slots == [(0, 0)]

    def test_jsonl_event_stream_loads(self):
        text = "\n".join(
            [
                '{"type": "PhaseMarker", "time": 0.0, "job": "j", '
                '"kind": "map", "num_tasks": 1, "state": "started"}',
                '{"task": 0, "node": 0, "slot": 0, "start": 0.0, "end": 1.0}',
                '{"task": 1, "node": 0, "slot": 1, "start": 0.5, "end": 2.0}',
            ]
        )
        restored = Trace.from_json(text)
        assert len(restored.spans) == 2
        assert restored.makespan == pytest.approx(2.0)

    def test_unrecognized_document_raises(self):
        with pytest.raises(ValueError):
            Trace.from_json('{"not": "a trace"}')

    def test_jsonl_torn_final_line_tolerated(self):
        # A trace sink that dies mid-write leaves a torn last line; the
        # loader keeps everything before it (crash-artifact tolerance).
        text = "\n".join(
            [
                '{"task": 0, "node": 0, "slot": 0, "start": 0.0, "end": 1.0}',
                '{"task": 1, "node": 0, "slot": 1, "start": 0.5, "end": 2.0}',
                '{"task": 2, "node": 0, "slot": 0, "start": 1.0, "e',
            ]
        )
        restored = Trace.from_json(text)
        assert [span.task_id for span in restored.spans] == [0, 1]

    def test_jsonl_interior_corruption_still_raises(self):
        text = "\n".join(
            [
                '{"task": 0, "node": 0, "slot": 0, "start": 0.0, "end": 1.0}',
                '{"task": 1, "torn',
                '{"task": 2, "node": 0, "slot": 0, "start": 1.0, "end": 2.0}',
            ]
        )
        with pytest.raises(ValueError):
            Trace.from_json(text)

    def test_slots_derived_from_spans_when_omitted(self):
        trace = Trace(spans=[TaskSpan(1, 2, 3, 0.0, 1.0)])
        assert trace.slots == [(2, 3)]

    def test_build_trace_inventories_idle_slots(self):
        trace = build_trace([TaskCost(0, 5.0)], cluster(2, 2))
        assert len(trace.slots) == 4
        util = trace.utilization()
        assert sum(1 for value in util.values() if value == 0.0) == 3
