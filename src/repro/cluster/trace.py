"""Execution traces: per-task timelines from a scheduled assignment.

The simulator's :class:`~repro.cluster.scheduler.Assignment` says *where*
each task runs and how loaded each slot is; a :class:`Trace` adds *when*:
tasks on one slot run back-to-back in scheduling order, giving every task
a (start, end) interval.  Traces support

- JSON export (loadable into external tooling) and loading from the
  legacy span-array format, the current ``{"slots", "spans"}`` document,
  a single span object, or the JSONL files a real engine run's
  :class:`~repro.mapreduce.controlplane.events.JsonlTraceSink` writes,
- an ASCII Gantt chart for quick terminal inspection,
- utilization statistics (busy fraction per slot, cluster-wide).

A trace carries its *slot inventory* explicitly: utilization and the
Gantt chart cover idle slots too, and an empty trace round-trips through
JSON without forgetting which slots existed.

This is the observability layer the §6 evaluation would have read off the
Hadoop JobTracker UI — and, via the engine's event bus, what real local
runs now emit as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .node import ClusterSpec
from .scheduler import TaskCost, cluster_slots, place

#: Keys every span record carries, in every supported serialization.
_SPAN_KEYS = frozenset({"task", "node", "slot", "start", "end"})


@dataclass(frozen=True)
class TaskSpan:
    """One task's placement and time interval."""

    task_id: int
    node: int
    slot: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _span_from_dict(record: dict) -> TaskSpan:
    return TaskSpan(
        task_id=record["task"], node=record["node"], slot=record["slot"],
        start=record["start"], end=record["end"],
    )


@dataclass
class Trace:
    """A full schedule timeline.

    ``slots`` is the slot inventory — every ``(node, slot)`` pair that
    *could* have run tasks.  It defaults to the slots the spans mention,
    but passing it explicitly keeps idle slots visible in utilization
    and the Gantt chart, and survives JSON round-trips even when there
    are no spans at all.
    """

    spans: list[TaskSpan]
    slots: list[tuple[int, int]] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        inventory = {(span.node, span.slot) for span in self.spans}
        if self.slots is not None:
            inventory.update(tuple(slot) for slot in self.slots)
        self.slots = sorted(inventory)

    @property
    def makespan(self) -> float:
        return max((span.end for span in self.spans), default=0.0)

    def spans_on(self, node: int, slot: int | None = None) -> list[TaskSpan]:
        out = [
            span
            for span in self.spans
            if span.node == node and (slot is None or span.slot == slot)
        ]
        return sorted(out, key=lambda s: s.start)

    def utilization(self) -> dict[tuple[int, int], float]:
        """Busy fraction of each inventoried slot over the makespan."""
        total = self.makespan
        if total == 0:
            return {slot: 0.0 for slot in self.slots}
        busy = {slot: 0.0 for slot in self.slots}
        for span in self.spans:
            busy[(span.node, span.slot)] += span.duration
        return {key: value / total for key, value in busy.items()}

    def mean_utilization(self) -> float:
        values = list(self.utilization().values())
        return sum(values) / len(values) if values else 0.0

    # -- export ---------------------------------------------------------------
    def to_json(self) -> str:
        """A ``{"slots", "spans"}`` document (Chrome-trace-adjacent spans)."""
        spans = [
            {
                "task": span.task_id,
                "node": span.node,
                "slot": span.slot,
                "start": span.start,
                "end": span.end,
            }
            for span in sorted(self.spans, key=lambda s: (s.node, s.slot, s.start))
        ]
        return json.dumps(
            {"slots": [list(slot) for slot in self.slots], "spans": spans},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Load a trace from any of the formats we have ever written.

        Accepted inputs: the current ``{"slots", "spans"}`` document, the
        legacy bare span array, a single span object, and JSONL — one
        JSON object per line, as written by
        :class:`~repro.mapreduce.controlplane.events.JsonlTraceSink` —
        where span-shaped lines become spans and typed event lines are
        skipped.
        """
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            return cls._from_jsonl(text)
        if isinstance(document, list):  # legacy span array
            return cls(spans=[_span_from_dict(record) for record in document])
        if isinstance(document, dict):
            if "spans" in document:
                return cls(
                    spans=[_span_from_dict(r) for r in document["spans"]],
                    slots=[tuple(slot) for slot in document.get("slots", [])],
                )
            if _SPAN_KEYS <= document.keys():  # a single bare span
                return cls(spans=[_span_from_dict(document)])
        raise ValueError("unrecognized trace document")

    @classmethod
    def _from_jsonl(cls, text: str) -> "Trace":
        """Parse JSONL event-stream output; keep the span-shaped lines.

        A torn *final* line — the writer died mid-append, e.g. a sink
        whose driver was killed — is dropped; a malformed line anywhere
        else is real corruption and re-raises.
        """
        spans: list[TaskSpan] = []
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        for position, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    break
                raise
            if isinstance(record, dict) and _SPAN_KEYS <= record.keys():
                spans.append(_span_from_dict(record))
        return cls(spans=spans)

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt: one row per slot, task ids mod 10 as fill digits."""
        if not self.spans:
            return "(empty trace)"
        if width < 10:
            raise ValueError(f"gantt needs width >= 10, got {width}")
        total = self.makespan
        lines = [f"0{' ' * (width - len(str(round(total, 1))) - 1)}{round(total, 1)}s"]
        for node, slot in self.slots:
            row = [" "] * width
            for span in self.spans_on(node, slot):
                lo = int(span.start / total * (width - 1))
                hi = max(lo + 1, int(span.end / total * (width - 1)))
                digit = str(span.task_id % 10)
                for col in range(lo, min(hi, width)):
                    row[col] = digit
            lines.append(f"n{node}.s{slot} |{''.join(row)}|")
        return "\n".join(lines)


def build_trace(tasks: Sequence[TaskCost], cluster: ClusterSpec) -> Trace:
    """Place tasks on the cluster's slots and derive their timeline.

    Tasks placed on the same slot run in the order they were placed
    (costliest first), each beginning when its predecessor ends and
    lasting its cost over the slot's speed.  The resulting trace
    inventories *every* usable slot, including ones that received no tasks.
    """
    slots = cluster_slots(cluster)
    assignment = place(tasks, slots)
    cost_of = {task.task_id: task.seconds for task in tasks}
    speed_of = {slot.key: slot.speed for slot in slots}
    clocks = {slot.key: 0.0 for slot in slots}
    spans = []
    for task_id, slot in assignment.placement.items():  # dispatch order
        start = clocks[slot]
        clocks[slot] = start + cost_of[task_id] / speed_of[slot]
        spans.append(
            TaskSpan(task_id=task_id, node=slot[0], slot=slot[1], start=start, end=clocks[slot])
        )
    return Trace(spans=spans, slots=sorted(clocks))
