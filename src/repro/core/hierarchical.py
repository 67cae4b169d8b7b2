"""Hierarchical distribution schemes (the paper's §7 outlook, implemented).

The flat schemes hit hard dataset-size limits (Figs 8–9).  §7 sketches the
remedy: process *coarse-grained* partitions **sequentially** — each round
materializes only its own replicas — while parallelizing *within* a round
with a fine-grained scheme, then aggregate before the next round starts.
This eases both limits at once:

- working set per task shrinks to the fine granularity, and
- intermediate storage holds one round's replication instead of all of it.

Two schedules are provided:

:class:`HierarchicalBlockScheme`
    First-level blocks from a coarse factor ``H`` (the §7 example); each
    coarse block — a pair of element groups, or one group on the diagonal —
    is tiled by a second-level factor ``f`` into parallel tasks.

:class:`SequentialDesignSchedule`
    The §7 variant for the design scheme: the plane's blocks are processed
    in ``R`` sequential batches, dividing the materialized replication by
    ``≈ R``.

Both are ordered sequences of :class:`Round` objects, and a round is an ordinary
:class:`~repro.core.scheme.DistributionScheme` over the global ids — explicit
:class:`ScheduledTask` lists, a declared universe (the round's coarse blocks)
and the elements that sit the round out — so the flat schemes' validator,
executor and simulator run it unchanged: :func:`run_rounds` is a loop of
:class:`~repro.core.pairwise.PairwiseComputation`, and
:func:`check_schedule_exactly_once` asks
:func:`~repro.core.validate.check_exactly_once` about every round.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .._util import ceil_div, chunked, triangle_count
from .design import DesignScheme
from .element import Element, _elements_by_id
from .pairwise import PairwiseComputation
from .scheme import DistributionScheme, Pair, SchemeMetrics, TaskProfile
from .validate import check_exactly_once


@dataclass(frozen=True)
class ScheduledTask:
    """One parallel task within a round."""

    round_index: int
    task_index: int
    members: tuple[int, ...]
    pairs: tuple[Pair, ...]


class Round(DistributionScheme):
    """One sequential round: tasks that may run in parallel together.

    A schema over the global ids ``1..v`` built from the round's explicit
    task list, so ``get_subsets`` / ``get_pairs`` are exact.  ``blocks`` is
    what the round must cover — ``(high, low)`` id groups, each standing
    for the pairs ``(i, j)``, i ∈ high, j ∈ low, i > j (a coarse block, or
    a design block against itself) — stated apart from how ``tasks`` tile
    it.  Elements of no task sit the round out.
    """

    name = "schedule-round"

    def __init__(
        self,
        v: int,
        index: int,
        tasks: Iterable[ScheduledTask],
        blocks: Iterable[tuple[Sequence[int], Sequence[int]]],
    ):
        super().__init__(v)
        self.index = index
        self.tasks = tuple(tasks)
        self.blocks = tuple(blocks)
        self._subsets_of: dict[int, list[int]] = {}
        for task in self.tasks:
            for eid in task.members:
                self._subsets_of.setdefault(eid, []).append(task.task_index)
        self._participants = sorted(self._subsets_of)

    @property
    def replicas(self) -> int:
        """Element copies materialized by this round (its shuffle volume)."""
        return sum(len(task.members) for task in self.tasks)

    @property
    def max_working_set(self) -> int:
        return max((len(task.members) for task in self.tasks), default=0)

    @property
    def evaluations(self) -> int:
        return sum(len(task.pairs) for task in self.tasks)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def get_subsets(self, element_id: int) -> list[int]:
        return list(self._subsets_of.get(element_id, ()))

    def get_pairs(self, subset_id: int, members: Sequence[int] | None = None) -> list[Pair]:
        return list(self.tasks[subset_id].pairs)

    def subset_members(self, subset_id: int) -> list[int]:
        return sorted(self.tasks[subset_id].members)

    def participants(self) -> list[int]:
        return self._participants

    def required_pairs(self) -> frozenset[Pair]:
        return frozenset(
            (i, j) for high, low in self.blocks for i in high for j in low if i > j
        )

    def task_profile(self, subset_id: int) -> TaskProfile:
        task = self.tasks[subset_id]
        return TaskProfile(subset_id, len(task.members), len(task.pairs))

    def metrics(self) -> SchemeMetrics:
        """The round's Table-1 row; replication counts the elements sitting out as 0."""
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=self.num_tasks,
            communication_records=2 * self.replicas,
            replication_factor=self.replicas / self.v,
            working_set_elements=self.max_working_set,
            evaluations_per_task=self.evaluations / max(1, self.num_tasks),
        )


class Schedule:
    """Base: an ordered sequence of rounds over elements 1..v."""

    def __init__(self, v: int):
        if v < 2:
            raise ValueError(f"need v >= 2, got {v}")
        self.v = v

    def rounds(self) -> Iterator[Round]:
        raise NotImplementedError

    @property
    def num_rounds(self) -> int:
        raise NotImplementedError

    # -- derived analytics ------------------------------------------------------
    def peak_round_replicas(self) -> int:
        """Max replicas alive at once — the §7 eased maxis quantity."""
        return max(r.replicas for r in self.rounds())

    def max_working_set(self) -> int:
        return max(r.max_working_set for r in self.rounds())

    def total_evaluations(self) -> int:
        return sum(r.evaluations for r in self.rounds())


class HierarchicalBlockScheme(Schedule):
    """Two-level block scheme: coarse rounds, fine parallel tiles.

    Parameters
    ----------
    v:
        Dataset cardinality.
    coarse_h:
        First-level blocking factor H; the ``H(H+1)/2`` coarse blocks each
        become one sequential round.
    fine_h:
        Second-level factor f; a diagonal round (one group of ``E=⌈v/H⌉``
        elements) is tiled by a triangle of ``f(f+1)/2`` tasks, an
        off-diagonal round (two groups) by an ``f × f`` task grid.
    """

    def __init__(self, v: int, coarse_h: int, fine_h: int):
        super().__init__(v)
        if coarse_h < 1 or coarse_h > v:
            raise ValueError(f"coarse factor must be in [1, {v}], got {coarse_h}")
        if fine_h < 1:
            raise ValueError(f"fine factor must be >= 1, got {fine_h}")
        self.E = ceil_div(v, coarse_h)  # coarse group edge
        self.coarse_h = ceil_div(v, self.E)  # effective H
        self.fine_h = fine_h

    @property
    def num_rounds(self) -> int:
        return self.coarse_h * (self.coarse_h + 1) // 2

    def _coarse_group(self, g: int) -> list[int]:
        lo = (g - 1) * self.E + 1
        hi = min(g * self.E, self.v)
        return list(range(lo, hi + 1))

    def _fine_chunks(self, members: Sequence[int]) -> list[Sequence[int]]:
        size = ceil_div(len(members), self.fine_h)
        return list(chunked(list(members), size))

    def rounds(self) -> Iterator[Round]:
        round_index = 0
        for I in range(1, self.coarse_h + 1):
            for J in range(1, I + 1):
                if I == J:
                    yield self._diagonal_round(round_index, I)
                else:
                    yield self._cross_round(round_index, I, J)
                round_index += 1

    def _diagonal_round(self, round_index: int, g: int) -> Round:
        """Pairs within one coarse group, tiled by a fine triangle."""
        members = self._coarse_group(g)
        chunks = self._fine_chunks(members)
        tasks: list[ScheduledTask] = []
        task_index = 0
        for a in range(len(chunks)):
            for b in range(a + 1):
                if a == b:
                    chunk = list(chunks[a])
                    pairs = tuple(
                        (chunk[x], chunk[y])
                        for x in range(len(chunk))
                        for y in range(x)
                    )
                    task_members = tuple(chunk)
                else:
                    hi, lo = list(chunks[a]), list(chunks[b])
                    pairs = tuple((i, j) for i in hi for j in lo)
                    task_members = tuple(lo + hi)
                tasks.append(
                    ScheduledTask(round_index, task_index, task_members, pairs)
                )
                task_index += 1
        return Round(self.v, round_index, tasks, [(members, members)])

    def _cross_round(self, round_index: int, I: int, J: int) -> Round:
        """All cross pairs between coarse groups I > J, tiled f × f."""
        high, low = self._coarse_group(I), self._coarse_group(J)
        tasks: list[ScheduledTask] = []
        task_index = 0
        for col_chunk in self._fine_chunks(high):
            for row_chunk in self._fine_chunks(low):
                pairs = tuple((c, r) for c in col_chunk for r in row_chunk)
                members = tuple(list(row_chunk) + list(col_chunk))
                tasks.append(ScheduledTask(round_index, task_index, members, pairs))
                task_index += 1
        return Round(self.v, round_index, tasks, [(high, low)])


class SequentialDesignSchedule(Schedule):
    """Design scheme processed in sequential batches of blocks (§7).

    ``num_rounds`` batches of the underlying plane's blocks; intermediate
    storage per round is ``≈ replication/num_rounds`` of the flat scheme's.
    """

    def __init__(self, design: DesignScheme, num_rounds: int):
        super().__init__(design.v)
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        self.design = design
        self._num_rounds = min(num_rounds, design.num_tasks)
        self.batch = ceil_div(design.num_tasks, self._num_rounds)

    @property
    def num_rounds(self) -> int:
        return self._num_rounds

    def rounds(self) -> Iterator[Round]:
        for round_index in range(self._num_rounds):
            lo = round_index * self.batch
            hi = min((round_index + 1) * self.batch, self.design.num_tasks)
            tasks = []
            for task_index, subset_id in enumerate(range(lo, hi)):
                members = tuple(self.design.subset_members(subset_id))
                pairs = tuple(self.design.get_pairs(subset_id, members))
                tasks.append(ScheduledTask(round_index, task_index, members, pairs))
            # A design block owes every pair among its own points.
            yield Round(self.v, round_index, tasks, [(t.members, t.members) for t in tasks])


# ---------------------------------------------------------------------------
# Execution and validation over schedules
# ---------------------------------------------------------------------------

def run_rounds(
    dataset: Sequence[Any],
    comp: Callable[[Any, Any], Any],
    schedule: Schedule,
    *,
    aggregator: Callable[[Sequence[Element]], Element] | None = None,
    engine=None,
    **options: Any,
) -> dict[int, Element]:
    """Execute a schedule round by round, aggregating between rounds (§7).

    Every round is one :class:`~repro.core.pairwise.PairwiseComputation`
    over the round's schema — the in-process reference without an
    ``engine``, the two-MR-job pipeline on it with one (a persistent pool
    keeps its workers across rounds); ``options`` are that class's other
    keywords (``symmetric``, ``threshold``, ``pruning``, …).  Only a round's
    participants are shipped, and the computation's own aggregator folds
    what they bring back into the running elements — "each block is
    aggregated before the next one is processed" — so at no time do more
    than one round's replicas exist.  The aggregator therefore has to be
    one that can be applied again to its own output (concat, threshold and
    top-k can; a fold to a single value per element cannot).
    """
    if len(dataset) != schedule.v:
        raise ValueError(
            f"dataset has {len(dataset)} elements, schedule expects {schedule.v}"
        )
    current = _elements_by_id(dataset)
    payloads = [current[eid].payload for eid in range(1, schedule.v + 1)]
    for round_ in schedule.rounds():
        if not round_.evaluations:
            continue  # nothing to evaluate: no jobs, nothing shipped
        computation = PairwiseComputation(
            round_, comp, aggregator=aggregator, engine=engine, **options
        )
        run = computation.run_local if engine is None else computation.run
        for eid, contribution in run(payloads).items():
            current[eid] = computation.aggregator([current[eid], contribution])
    return current


def check_schedule_exactly_once(schedule: Schedule) -> tuple[bool, str]:
    """Every round covers its own universe exactly once; the universes tile the triangle."""
    universes: Counter = Counter()
    for round_ in schedule.rounds():
        report = check_exactly_once(round_)
        if not report.ok:
            return False, f"round {round_.index} violates exactly-once coverage: {report}"
        universes.update(round_.required_pairs())
    expected = triangle_count(schedule.v)
    inside = sum(1 for i, j in universes if 1 <= j < i <= schedule.v)
    if inside != expected or sum(universes.values()) != expected:
        return False, (
            f"rounds declare {sum(universes.values())} pairs, {inside} distinct "
            f"ones inside the triangle of {expected}"
        )
    return True, "ok"


# ---------------------------------------------------------------------------
# §7 analytic model: how much the limits ease
# ---------------------------------------------------------------------------

def hierarchical_block_limits(
    v: int, coarse_h: int, fine_h: int, element_size: int
) -> dict[str, float]:
    """Working-set and per-round intermediate bytes of the two-level scheme.

    Flat block needs ``ws = 2⌈v/h⌉·s`` and ``is = v·s·h`` simultaneously;
    the hierarchy needs only ``ws = 2⌈E/f⌉·s`` and ``is ≈ 2E·f·s`` where
    ``E = ⌈v/H⌉`` — both shrink with H, at the price of ``H(H+1)/2``
    sequential rounds.
    """
    E = ceil_div(v, coarse_h)
    e2 = ceil_div(E, fine_h)
    return {
        "coarse_group": E,
        "fine_edge": e2,
        "working_set_bytes": 2 * e2 * element_size,
        "round_intermediate_bytes": 2 * E * fine_h * element_size,
        "num_rounds": coarse_h * (coarse_h + 1) / 2,
    }


def hierarchical_max_dataset_bytes(
    maxws: int, maxis: int, coarse_h: int
) -> float:
    """Largest dataset (vs bytes) feasible with coarse factor H (cf. Fig 9a).

    Per round the block feasibility condition applies to the coarse group
    (≈ 2·vs/H of data when two groups meet), so
    ``vs ≤ (H/2)·sqrt(maxws·maxis/2)`` — a factor H/2 beyond the flat bound.
    """
    if coarse_h < 1:
        raise ValueError(f"coarse factor must be >= 1, got {coarse_h}")
    flat = math.sqrt(maxws * maxis / 2)
    return flat * coarse_h / 2 if coarse_h > 1 else flat
