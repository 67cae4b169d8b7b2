"""The engines' one dispatch order, the unified engine chooser, and the
real-run trace round-trip.  (Placement lives in ``tests/cluster/test_scheduler.py``.)"""

import json

import pytest

from repro.cluster.trace import Trace
from repro.mapreduce.controlplane import AttemptTransition, JsonlTraceSink
from repro.mapreduce.job import Job
from repro.mapreduce.runtime import (
    AUTO_SERIAL_MAX_RECORDS,
    MultiprocessEngine,
    SerialEngine,
    choose_engine,
)
from repro.mapreduce.serialization import record_size

from . import wordcount
from .wordcount import wordcount_job

LINES = wordcount.LINES * 4


def first_field(key, num_partitions):
    return key[0] % num_partitions


#: partition → (records, value length): 1 is the heavy one, 2 and 3 tie, 0 is light
SKEW = {0: (3, 10), 1: (40, 400), 2: (12, 100), 3: (12, 100)}
SKEWED = [
    ((partition, i), "x" * length)
    for partition, (count, length) in SKEW.items()
    for i in range(count)
]


class TestDispatchOrder:
    def test_reduce_wave_leaves_largest_partition_first(self):
        """Costliest first, ties by index — and records + counters equal the serial run's."""
        job = Job(name="skewed", num_reducers=4, partitioner=first_field)
        serial = SerialEngine().run(job, SKEWED, num_map_tasks=3)
        events = []
        with MultiprocessEngine(max_workers=2) as engine:
            engine.events.subscribe(events.append)
            pooled = engine.run(job, SKEWED, num_map_tasks=3)
        assert pooled.records == serial.records
        assert pooled.counters.as_dict() == serial.counters.as_dict()

        partition_bytes = [0] * 4
        for key, value in SKEWED:
            partition_bytes[key[0]] += record_size(key, value)
        assert partition_bytes[2] == partition_bytes[3]  # the tie is real
        dispatched = [
            event.task_index
            for event in events
            if isinstance(event, AttemptTransition)
            and (event.kind, event.state) == ("reduce", "DISPATCHED")
        ]
        assert dispatched == sorted(range(4), key=lambda p: (-partition_bytes[p], p))
        assert dispatched == [1, 2, 3, 0]


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
