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
:class:`ScheduledTask` lists, a declared universe (tiles: the round's coarse
block, or its design blocks) and the elements that sit the round out — so the
flat schemes' validator, executor and simulator run it unchanged: :func:`run_rounds` is a loop of
:meth:`~repro.core.pairwise.PairwiseComputation.run`, and
:func:`check_schedule_exactly_once` asks
:func:`~repro.core.validate.check_exactly_once` about every round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .._util import ceil_div, chunked
from .design import DesignScheme
from .element import Element, PairResults
from .pairwise import PairwiseComputation
from .scheme import (
    Cross, DistributionScheme, SchemeMetrics, TaskProfile, Tile, Triangle, tile_rows,
)
from .validate import check_exactly_once, pair_keys


@dataclass(frozen=True)
class ScheduledTask:
    """One parallel task within a round: its members and the tiles of its pairs."""

    round_index: int
    task_index: int
    members: tuple[int, ...]
    tiles: tuple[Tile, ...]

    @property
    def evaluations(self) -> int:
        return sum(tile.size() for tile in self.tiles)


class Round(DistributionScheme):
    """One sequential round: tasks that may run in parallel together.

    A schema over the global ids ``1..v`` built from the round's explicit
    task list, so ``get_subsets`` / ``pair_tiles`` are exact.  ``universe``
    is what the round must cover, as tiles — a coarse block's
    :class:`Triangle` or :class:`Cross`, or one :class:`Triangle` per design
    block — stated apart from how ``tasks`` tile it.  Elements of no task
    sit the round out.
    """

    name = "schedule-round"

    def __init__(
        self,
        v: int,
        index: int,
        tasks: Iterable[ScheduledTask],
        universe: Iterable[Tile],
    ):
        super().__init__(v)
        self.index = index
        self.tasks = tuple(tasks)
        self.universe = tuple(universe)

    @cached_property
    def _subsets_of(self) -> dict[int, list[int]]:
        """Element id → the tasks holding it; built on the first map-side question."""
        subsets_of: dict[int, list[int]] = {}
        for task in self.tasks:
            for eid in task.members:
                subsets_of.setdefault(eid, []).append(task.task_index)
        return subsets_of

    @cached_property
    def _participants(self) -> list[int]:
        return sorted(self._subsets_of)

    @property
    def replicas(self) -> int:
        """Element copies materialized by this round (its shuffle volume)."""
        return sum(len(task.members) for task in self.tasks)

    @property
    def max_working_set(self) -> int:
        return max((len(task.members) for task in self.tasks), default=0)

    @property
    def evaluations(self) -> int:
        return sum(task.evaluations for task in self.tasks)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def get_subsets(self, element_id: int) -> list[int]:
        return list(self._subsets_of.get(element_id, ()))

    def pair_tiles(
        self, subset_id: int, members: Sequence[int] | None = None
    ) -> tuple[Tile, ...]:
        self._check_subset_id(subset_id)
        return self.tasks[subset_id].tiles

    def subset_members(self, subset_id: int) -> list[int]:
        self._check_subset_id(subset_id)
        return sorted(self.tasks[subset_id].members)

    def participants(self) -> list[int]:
        return self._participants

    def required_tiles(self) -> tuple[Tile, ...]:
        return self.universe

    def task_profile(self, subset_id: int) -> TaskProfile:
        self._check_subset_id(subset_id)
        task = self.tasks[subset_id]
        return TaskProfile(subset_id, len(task.members), task.evaluations)

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

    def _fine_chunks(self, members: Sequence[int]) -> list[tuple[int, ...]]:
        size = ceil_div(len(members), self.fine_h)
        return list(chunked(tuple(members), size))

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
        for a in range(len(chunks)):
            for b in range(a + 1):
                if a == b:
                    task_members, tile = chunks[a], Triangle(chunks[a])
                else:
                    task_members, tile = chunks[b] + chunks[a], Cross(chunks[a], chunks[b])
                tasks.append(ScheduledTask(round_index, len(tasks), task_members, (tile,)))
        return Round(self.v, round_index, tasks, (Triangle(members),))

    def _cross_round(self, round_index: int, I: int, J: int) -> Round:
        """All cross pairs between coarse groups I > J, tiled f × f."""
        high, low = self._coarse_group(I), self._coarse_group(J)
        row_chunks = self._fine_chunks(low)
        tasks: list[ScheduledTask] = []
        for col_chunk in self._fine_chunks(high):
            for row_chunk in row_chunks:
                tile = Cross(col_chunk, row_chunk)
                tasks.append(ScheduledTask(round_index, len(tasks), row_chunk + col_chunk, (tile,)))
        return Round(self.v, round_index, tasks, (Cross(high, low),))


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
                tiles = self.design.pair_tiles(subset_id, members)
                tasks.append(ScheduledTask(round_index, task_index, members, tiles))
            # A design block owes every pair among its own points.
            yield Round(self.v, round_index, tasks, [Triangle(t.members) for t in tasks])


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
) -> PairResults:
    """Execute a schedule round by round, aggregating between rounds (§7).

    Every round is one :class:`~repro.core.pairwise.PairwiseComputation`
    over the round's schema, run as its two-MR-job pipeline on ``engine``
    (the serial engine when none is given; a persistent pool keeps its
    workers across rounds); ``options`` are that class's other keywords
    (``symmetric``, ``kernel``, ``threshold``, ``top_k``, ``pruning``, …),
    honoured by every round as by a flat run.  Only a round's participants
    are shipped, and the computation's own aggregator folds what they bring
    back into the running elements — "each block is aggregated before the
    next one is processed" — so at no time do more than one round's
    replicas exist.  The aggregator therefore has to be one that can be
    applied again to its own output, as concat, threshold and top-k can.
    Element ``i`` is ``dataset[i-1]``.  Returns the folded elements as a
    :class:`~repro.core.element.PairResults`.
    """
    if len(dataset) != schedule.v:
        raise ValueError(
            f"dataset has {len(dataset)} elements, schedule expects {schedule.v}"
        )
    payloads = list(dataset)
    current = {eid: Element(eid, payload) for eid, payload in enumerate(payloads, start=1)}
    for round_ in schedule.rounds():
        if not round_.evaluations:
            continue  # nothing to evaluate: no jobs, nothing shipped
        computation = PairwiseComputation(
            round_, comp, aggregator=aggregator, engine=engine, **options
        )
        for eid, contribution in computation.run(payloads).items():
            current[eid] = computation.aggregator([current[eid], contribution])
    return PairResults.of(current)


def check_schedule_exactly_once(schedule: Schedule) -> tuple[bool, str]:
    """Every round covers its own universe exactly once; the universes tile the triangle."""
    universes: list[Tile] = []
    for round_ in schedule.rounds():
        report = check_exactly_once(round_)
        if not report.ok:
            return False, f"round {round_.index} violates exactly-once coverage: {report}"
        universes.extend(round_.required_tiles())
    keys = np.sort(pair_keys(tile_rows(universes), schedule.v))
    triangle = pair_keys(tile_rows((Triangle(range(1, schedule.v + 1)),)), schedule.v)
    if not np.array_equal(keys, triangle):  # the triangle's keys ascend
        return False, (
            f"rounds declare {len(keys)} pairs, {len(np.intersect1d(keys, triangle))} distinct "
            f"ones inside the triangle of {len(triangle)}"
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
