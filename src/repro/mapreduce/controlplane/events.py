"""Structured execution events and the JSONL trace sink.

The engines narrate what they do — attempt transitions, shuffle spills,
bytes moved between plan stages — as typed events on an
:class:`EventBus`.  Subscribers are plain callables, so observability is
opt-in and costs one ``if`` when nobody listens.

:class:`JsonlTraceSink` is the bundled subscriber: it streams every
event as one JSON object per line *and*, on close, appends the task
spans it reconstructed from the attempt transitions — using the exact
span schema of :meth:`repro.cluster.trace.Trace.to_json` (``task`` /
``node`` / ``slot`` / ``start`` / ``end``).  A real engine run's sink
file therefore loads straight into ``Trace.from_json`` and renders with
``Trace.gantt()``, giving real runs the same timeline artifact the
simulator produces — and a calibration target for its cost model.

Layering: this module must not import the engines or ``repro.cluster``
(the *schema* is shared, the code is not — see ``tests/test_layering.py``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, IO


@dataclass(frozen=True)
class AttemptTransition:
    """A task attempt changed lifecycle state."""

    time: float
    kind: str  # "map" | "reduce"
    task_index: int
    attempt: int
    state: str  # TaskState value
    worker_pid: int | None = None


@dataclass(frozen=True)
class SpillWritten:
    """One partition's segment of a task's spill file landed on disk."""

    time: float
    kind: str  # producing phase: "map" | "reduce"
    task_index: int
    partition: int
    num_bytes: int


@dataclass(frozen=True)
class SpillQuarantined:
    """A spill segment failed its integrity check and was linked aside.

    The driver emits this just before replaying the producing map
    attempt; ``kind``/``task_index`` identify the producer (parsed from
    the file name at ``path``), ``partition`` the damaged segment (the
    reducer that tripped over it), ``reason`` the integrity failure.
    """

    time: float
    path: str
    kind: str  # producing phase: "map" | "fuse"
    task_index: int
    partition: int
    reason: str


@dataclass(frozen=True)
class BytesMoved:
    """Payload bytes crossed a named channel (driver gather, fused chain)."""

    time: float
    channel: str  # e.g. "map_output", "reduce_output", "fused_chain"
    num_bytes: int


@dataclass(frozen=True)
class ReplicationMeasured:
    """A pairwise run's replication, measured against the theoretical floor.

    Emitted once per :class:`~repro.core.pairwise.PairwiseComputation`
    run, after the pipeline completes.  ``replication_achieved`` is
    replicas-emitted / v (falling back to the scheme's analytic factor on
    paths that emit no replica records); ``replication_lower_bound`` is
    the Afrati/Ullman floor ``(v−1)/(capacity−1)`` at the scheme's own
    working-set capacity; ``shuffle_bytes_vs_bound`` compares measured
    shuffle bytes to ``legs × bound × v × element_size`` (0.0 when no
    shuffle bytes were metered, e.g. the serial engine).
    """

    time: float
    scheme: str
    v: int
    capacity_elements: int
    replication_achieved: float
    replication_lower_bound: float
    optimality_ratio: float
    shuffle_bytes: int
    shuffle_bytes_floor: int
    shuffle_bytes_vs_bound: float


@dataclass(frozen=True)
class PhaseMarker:
    """A phase (one job's map or reduce wave) started or finished."""

    time: float
    job: str
    kind: str  # "map" | "reduce"
    num_tasks: int
    state: str  # "started" | "finished"


class EventBus:
    """Minimal synchronous pub/sub: emit calls every subscriber in order."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[Any], None]] = []

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Any], None]) -> None:
        self._subscribers.remove(callback)

    def emit(self, event: Any) -> None:
        for callback in self._subscribers:
            callback(event)

    def __len__(self) -> int:
        return len(self._subscribers)


class JsonlTraceSink:
    """Stream events to a JSONL file that ``Trace.from_json`` can load.

    Two kinds of lines are written:

    - every event, as it arrives: ``{"type": <event class>, ...fields}``
      with times rebased so the first event is t=0 (wall-clock epochs
      from ``time.monotonic`` are meaningless across runs);
    - on :meth:`close`, one span line per *succeeded* attempt:
      ``{"task", "node", "slot", "start", "end"}`` — the
      ``repro.cluster.trace`` span schema.  Worker pids are mapped to
      dense slot indices on node 0 in order of first appearance, and
      task ids are numbered globally in order of first dispatch, so a
      multi-job engine run still yields unique span ids.

    Use as a context manager, or pass to ``Engine(trace_sink=...)``
    which closes it at engine close.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._t0: float | None = None
        self._slot_of_pid: dict[int | None, int] = {}
        self._task_ids: dict[tuple[str, int], int] = {}
        #: (kind, task_index, attempt) -> begin time
        self._begun: dict[tuple[str, int, int], float] = {}
        self._spans: list[dict[str, Any]] = []

    # -- event intake ----------------------------------------------------------
    def record(self, event: Any) -> None:
        """EventBus subscriber: serialize one event and track spans."""
        if self._fh is None:
            return
        payload = asdict(event)
        when = payload.get("time")
        if isinstance(when, (int, float)):
            if self._t0 is None:
                self._t0 = float(when)
            payload["time"] = float(when) - self._t0
        payload = {"type": type(event).__name__, **payload}
        self._fh.write(json.dumps(payload) + "\n")
        if isinstance(event, AttemptTransition):
            self._track(event)

    def _track(self, event: AttemptTransition) -> None:
        rebased = event.time - (self._t0 if self._t0 is not None else event.time)
        key = (event.kind, event.task_index, event.attempt)
        if event.state == "DISPATCHED":
            self._begun.setdefault(key, rebased)
            self._task_ids.setdefault(
                (event.kind, event.task_index), len(self._task_ids)
            )
        elif event.state == "RUNNING":
            self._begun[key] = rebased
        elif event.state == "SUCCEEDED" and key in self._begun:
            slot = self._slot_of_pid.setdefault(
                event.worker_pid, len(self._slot_of_pid)
            )
            self._spans.append(
                {
                    "task": self._task_ids[(event.kind, event.task_index)],
                    "node": 0,
                    "slot": slot,
                    "start": self._begun.pop(key),
                    "end": rebased,
                }
            )

    # -- finalization ----------------------------------------------------------
    def close(self) -> None:
        """Append the reconstructed span lines and close the file."""
        if self._fh is None:
            return
        for span in sorted(self._spans, key=lambda s: (s["slot"], s["start"])):
            self._fh.write(json.dumps(span) + "\n")
        self._fh.close()
        self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
