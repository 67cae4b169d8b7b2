"""Execution control plane shared by the real engines and the simulator.

Engine-agnostic pieces of task orchestration, split out of
:mod:`repro.mapreduce.runtime` so both the in-process executors and the
:class:`~repro.cluster.simulator.ClusterSimulator` drive the same
machinery:

- :mod:`.attempts` — the task-lifecycle state machine
  (``PENDING → DISPATCHED → RUNNING → {SUCCEEDED, FAILED, KILLED,
  TIMED_OUT}``), an engine's retry settings
  (:class:`~repro.mapreduce.controlplane.attempts.TaskRetries`), the
  worker's single attempt (:func:`~repro.mapreduce.controlplane.attempts.run_attempt`,
  with deterministic backoff), and the driver-side
  :class:`~repro.mapreduce.controlplane.attempts.AttemptTracker`, the one
  place that decides whether a task runs again;
- :mod:`.policy` — the one dispatch order (costliest task first) the
  engines hand tasks out in and the one placement function
  (:func:`~repro.mapreduce.controlplane.policy.place`) the simulator
  puts them on slots with;
- :mod:`.events` — the structured event bus (attempt transitions,
  shuffle spills, bytes moved) and the JSONL sink whose output
  :class:`repro.cluster.trace.Trace` loads directly.

Layering rule (enforced by ``tests/test_layering.py``): nothing in this
package imports the engines (:mod:`repro.mapreduce.runtime`,
:mod:`repro.mapreduce.tasks`, :mod:`repro.mapreduce.spill`) or the
cluster package — the control plane is the layer both sit on.
"""

from .attempts import (
    TASK_ATTEMPTS,
    TASK_RETRIES,
    TASKS_TIMED_OUT,
    AttemptTracker,
    TaskAttempt,
    TaskState,
    attempt_tag,
    backoff_seconds,
    run_attempt,
)
from .events import (
    AttemptTransition,
    BytesMoved,
    EventBus,
    JsonlTraceSink,
    PhaseMarker,
    ReplicationMeasured,
    SpillQuarantined,
    SpillWritten,
)
from .policy import Assignment, Slot, TaskCost, dispatch_order, place

__all__ = [
    "AttemptTracker",
    "AttemptTransition",
    "Assignment",
    "BytesMoved",
    "EventBus",
    "JsonlTraceSink",
    "PhaseMarker",
    "ReplicationMeasured",
    "Slot",
    "SpillQuarantined",
    "SpillWritten",
    "TASKS_TIMED_OUT",
    "TASK_ATTEMPTS",
    "TASK_RETRIES",
    "TaskAttempt",
    "TaskCost",
    "TaskState",
    "attempt_tag",
    "backoff_seconds",
    "dispatch_order",
    "place",
    "run_attempt",
]
