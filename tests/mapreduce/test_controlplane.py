"""Control-plane unit tests: attempt lifecycle, tags, events, trace sink."""

import json

import pytest

from repro.mapreduce.controlplane import (
    AttemptTransition,
    BytesMoved,
    EventBus,
    JsonlTraceSink,
    TaskState,
    attempt_tag,
)
from repro.mapreduce.controlplane.attempts import AttemptTracker, TaskAttempt
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.spill import spill_file_path


class TestAttemptTag:
    def test_plain_attempts(self):
        assert attempt_tag(1) == "a1"
        assert attempt_tag(7) == "a7"

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            attempt_tag(0)

    def test_spill_filename_format_is_locked(self):
        """On-disk spill naming is parsed by tooling; lock it exactly."""
        assert spill_file_path("/scratch", "map", 3, 2) == "/scratch/map-00003-a2.spill"
        assert spill_file_path("/scratch", "fuse", 0, 1) == "/scratch/fuse-00000-a1.spill"


class TestTaskAttemptStateMachine:
    def make(self):
        return TaskAttempt(kind="map", task_index=0, attempt=1)

    def test_happy_path(self):
        attempt = self.make()
        assert attempt.state is TaskState.PENDING
        attempt.transition(TaskState.DISPATCHED, now=1.0)
        attempt.transition(TaskState.RUNNING, now=2.0)
        attempt.transition(TaskState.SUCCEEDED, now=5.0)
        assert attempt.state.terminal
        assert attempt.duration == pytest.approx(3.0)

    def test_illegal_transition_rejected(self):
        attempt = self.make()
        with pytest.raises(ValueError):
            attempt.transition(TaskState.RUNNING, now=0.0)  # never dispatched

    def test_terminal_states_are_sinks(self):
        attempt = self.make()
        attempt.transition(TaskState.DISPATCHED, now=0.0)
        attempt.transition(TaskState.FAILED, now=1.0)
        with pytest.raises(ValueError):
            attempt.transition(TaskState.RUNNING, now=2.0)

    def test_tag_matches_attempt_number(self):
        attempt = TaskAttempt(kind="map", task_index=0, attempt=3)
        assert attempt.tag == "a3"


class IdMapper(Mapper):
    pass


class IdReducer(Reducer):
    def reduce(self, key, values, context):
        for value in values:
            context.emit(key, value)


def make_job(**config):
    return Job(name="cp", mapper=IdMapper, reducer=IdReducer, config=config)


class TestAttemptTracker:
    def test_attempt_numbers_advance_on_lost_charge(self):
        tracker = AttemptTracker("map", 2, make_job())
        first = tracker.begin_dispatch(0, now=0.0)
        assert first.attempt == 1
        tracker.kill(first, now=1.0)
        tracker.charge_lost(0)
        second = tracker.begin_dispatch(0, now=2.0)
        assert second.attempt == 2
        tracker.charge_lost(0)
        assert tracker.exhausted(0)  # default max_attempts == 1
        from repro.mapreduce.job import TaskFailedError

        assert isinstance(tracker.lost_error(0, 0), TaskFailedError)

    def test_complete_records_duration_and_completion(self):
        tracker = AttemptTracker("reduce", 1, make_job())
        attempt = tracker.begin_dispatch(0, now=0.0)
        tracker.mark_running(attempt, now=1.0)
        tracker.complete(attempt, now=4.0, worker_pid=123)
        assert 0 in tracker.completed
        assert attempt.duration == pytest.approx(3.0)
        assert attempt.worker_pid == 123

    def test_kill_is_noop_on_terminal_attempts(self):
        tracker = AttemptTracker("map", 1, make_job())
        attempt = tracker.begin_dispatch(0, now=0.0)
        tracker.complete(attempt, now=1.0)
        tracker.kill(attempt, now=2.0)  # must not raise
        assert attempt.state is TaskState.SUCCEEDED

    def test_events_emitted_on_bus(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        tracker = AttemptTracker("map", 1, make_job(), bus=bus)
        attempt = tracker.begin_dispatch(0, now=0.0)
        tracker.mark_running(attempt, now=0.5)
        tracker.complete(attempt, now=1.0)
        states = [event.state for event in seen]
        assert states == ["DISPATCHED", "RUNNING", "SUCCEEDED"]
        assert all(isinstance(event, AttemptTransition) for event in seen)


class TestEventBus:
    def test_emit_without_subscribers_is_cheap_noop(self):
        bus = EventBus()
        assert len(bus) == 0
        bus.emit(object())  # nothing to deliver, nothing raised

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit("event")
        assert seen == []


class TestJsonlTraceSink:
    def transitions(self, sink):
        for state, when in (("DISPATCHED", 10.0), ("RUNNING", 10.5), ("SUCCEEDED", 12.0)):
            sink.record(
                AttemptTransition(
                    time=when, kind="map", task_index=0, attempt=1,
                    state=state, worker_pid=42,
                )
            )

    def test_event_lines_are_typed_and_rebased(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            self.transitions(sink)
            sink.record(BytesMoved(time=13.0, channel="map_output", num_bytes=7))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        events = [line for line in lines if "type" in line]
        assert events[0]["type"] == "AttemptTransition"
        assert events[0]["time"] == 0.0  # rebased to first event
        assert events[-1] == {
            "type": "BytesMoved", "time": 3.0, "channel": "map_output",
            "num_bytes": 7,
        }

    def test_span_lines_appended_on_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        self.transitions(sink)
        sink.close()
        assert sink.closed
        sink.close()  # idempotent
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [line for line in lines if "type" not in line]
        assert spans == [
            {"task": 0, "node": 0, "slot": 0, "start": 0.5, "end": 2.0}
        ]

    def test_loads_into_cluster_trace(self, tmp_path):
        from repro.cluster.trace import Trace

        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            self.transitions(sink)
        trace = Trace.from_json(path.read_text())
        assert len(trace.spans) == 1
        assert trace.makespan == pytest.approx(2.0)
        assert "0" in trace.gantt(width=20)
