"""Task order and placement, shared by the engines and the simulator.

The paper's balance demand (§5 demand (a)) is about *task* sizes; how
well balanced the *nodes* end up also depends on placement.  Hadoop
hands tasks to free slots as they come, which for independent tasks
handed out costliest-first is Longest-Processing-Time-first list
scheduling, with the classical makespan ≤ 4/3 · OPT bound.  The cost of
a run is fixed by the mapping schema's reducer size and replication
(Afrati et al., "Upper and Lower Bounds on the Cost of a Map-Reduce
Computation"), not by the order a driver queues tasks in — so there is
one order and one placement, not a menu:

- :func:`dispatch_order` — cost-descending, ties by task id.  The **real
  engines** hand a phase's tasks to free worker slots in this order,
  costed by the paper's working-set quantities (``|D_l|`` record counts
  for map splits, ``|P_l|`` partition bytes for reduce partitions).
  Task outputs are keyed by task index, so the order never shows in a
  job's results; only wall-clock depends on it.
- :func:`place` — the **cluster simulator**'s placement of estimated task
  costs onto modelled slots: tasks in that same order, each to the slot
  that finishes it earliest.

This module is dependency-free within the repo (no engine, no cluster
imports) so both layers can sit on it — see ``tests/test_layering.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class TaskCost:
    """One schedulable task: an id and its estimated running time."""

    task_id: int
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"task cost must be non-negative, got {self.seconds}")


@dataclass(frozen=True)
class Slot:
    """One execution slot: a (node, slot) pair with a relative speed.

    ``speed`` is the slot's throughput relative to the reference node
    (1.0 everywhere on homogeneous clusters); a task costing ``seconds``
    in reference time runs in ``seconds / speed`` wall seconds here.
    """

    node: int
    index: int
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"slot speed must be positive, got {self.speed}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.node, self.index)


@dataclass
class Assignment:
    """Result of scheduling: per-slot loads and task placements."""

    #: task_id -> (node index, slot index within node), in dispatch order
    placement: dict[int, tuple[int, int]]
    #: busy seconds per (node, slot)
    slot_loads: dict[tuple[int, int], float]

    @property
    def makespan(self) -> float:
        """Completion time of the last slot (0 when nothing was scheduled)."""
        return max(self.slot_loads.values(), default=0.0)

    def node_loads(self) -> dict[int, float]:
        """Max busy time over each node's slots."""
        loads: dict[int, float] = {}
        for (node, _slot), seconds in self.slot_loads.items():
            loads[node] = max(loads.get(node, 0.0), seconds)
        return loads

    @property
    def imbalance(self) -> float:
        """makespan / mean slot load — 1.0 is perfectly even."""
        if not self.slot_loads:
            return 1.0
        mean_load = sum(self.slot_loads.values()) / len(self.slot_loads)
        return self.makespan / mean_load if mean_load > 0 else 1.0


def dispatch_order(costs: Sequence[TaskCost]) -> list[int]:
    """Task ids costliest first, ties by id — the order tasks meet free slots."""
    return [task.task_id for task in sorted(costs, key=lambda t: (-t.seconds, t.task_id))]


def place(costs: Sequence[TaskCost], slots: Sequence[Slot]) -> Assignment:
    """Give each task, in :func:`dispatch_order`, the slot that finishes it earliest.

    A task costing ``seconds`` adds ``seconds / speed`` to its slot's load,
    so loads are wall-clock seconds.  On equal speeds this is classic LPT
    list scheduling; on mixed speeds the MET/LPT heuristic for uniformly
    related machines.  Ties go to the lowest ``(node, slot)``.
    """
    if not slots:
        raise ValueError("cannot schedule onto zero slots")
    seconds = {task.task_id: task.seconds for task in costs}
    if len(seconds) != len(costs):
        raise ValueError("task ids must be unique within a batch")
    loads = {slot.key: 0.0 for slot in slots}
    placement: dict[int, tuple[int, int]] = {}
    for task_id in dispatch_order(costs):
        finish, best = min(
            (loads[slot.key] + seconds[task_id] / slot.speed, slot.key) for slot in slots
        )
        placement[task_id] = best
        loads[best] = finish
    return Assignment(placement=placement, slot_loads=loads)
