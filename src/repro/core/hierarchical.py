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

Both expose rounds of tasks (``Round`` → ``ScheduledTask``) rather than the
flat :class:`DistributionScheme` interface, since sequential rounds are the
whole point; :func:`run_rounds` executes a schedule in-process, and
:func:`check_schedule_exactly_once` validates global coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .._util import ceil_div, chunked, triangle_count
from .design import DesignScheme
from .element import Element, _elements_by_id
from .scheme import Pair


@dataclass(frozen=True)
class ScheduledTask:
    """One parallel task within a round."""

    round_index: int
    task_index: int
    members: tuple[int, ...]
    pairs: tuple[Pair, ...]


@dataclass(frozen=True)
class Round:
    """One sequential round: tasks that may run in parallel together."""

    index: int
    tasks: tuple[ScheduledTask, ...]

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
        return Round(round_index, tuple(tasks))

    def _cross_round(self, round_index: int, I: int, J: int) -> Round:
        """All cross pairs between coarse groups I > J, tiled f × f."""
        cols = self._fine_chunks(self._coarse_group(I))
        rows = self._fine_chunks(self._coarse_group(J))
        tasks: list[ScheduledTask] = []
        task_index = 0
        for col_chunk in cols:
            for row_chunk in rows:
                pairs = tuple((c, r) for c in col_chunk for r in row_chunk)
                members = tuple(list(row_chunk) + list(col_chunk))
                tasks.append(ScheduledTask(round_index, task_index, members, pairs))
                task_index += 1
        return Round(round_index, tuple(tasks))


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
            yield Round(round_index, tuple(tasks))


# ---------------------------------------------------------------------------
# Execution and validation over schedules
# ---------------------------------------------------------------------------

def run_rounds(
    dataset: Sequence[Any],
    comp: Callable[[Any, Any], Any],
    schedule: Schedule,
    *,
    aggregator: Callable[[Sequence[Element]], Element] | None = None,
) -> dict[int, Element]:
    """Execute a schedule round by round, aggregating between rounds (§7).

    After each round the per-round copies are merged into the running
    elements — "each block is aggregated before the next one is processed"
    — so at no time do more than one round's replicas exist.
    """
    from .aggregate import ConcatAggregator  # local import avoids cycle

    if len(dataset) != schedule.v:
        raise ValueError(
            f"dataset has {len(dataset)} elements, schedule expects {schedule.v}"
        )
    aggregate = aggregator or ConcatAggregator()
    current = _elements_by_id(dataset)

    for round_ in schedule.rounds():
        copies: dict[int, list[Element]] = {}
        for task in round_.tasks:
            local = {
                eid: current[eid].copy_without_results() for eid in task.members
            }
            for i, j in task.pairs:
                result = comp(local[i].payload, local[j].payload)
                local[i].add_result(j, result)
                local[j].add_result(i, result)
            for eid, copy in local.items():
                copies.setdefault(eid, []).append(copy)
        # Aggregation barrier: merge this round's copies into the elements.
        for eid, element_copies in copies.items():
            carried = Element(
                current[eid].eid, current[eid].payload, dict(current[eid].results)
            )
            merged = aggregate([carried] + element_copies)
            current[eid] = merged
    return current


class _RoundScheme:
    """Adapter: one schedule round presented as a DistributionScheme-alike.

    Only the members/pairs surface the MR jobs need — built from the
    round's explicit task list, so get_subsets/get_pairs are exact.
    Element ids are global (1..v); tasks are the round's task indices.
    """

    name = "schedule-round"

    def __init__(self, v: int, round_: Round):
        self.v = v
        self._tasks = round_.tasks
        index: dict[int, list[int]] = {}
        for task in round_.tasks:
            for eid in task.members:
                index.setdefault(eid, []).append(task.task_index)
        self._subsets_of = index

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def get_subsets(self, element_id: int) -> list[int]:
        return list(self._subsets_of.get(element_id, []))

    def get_pairs(self, subset_id: int, members=None) -> list[Pair]:
        return list(self._tasks[subset_id].pairs)

    def subset_members(self, subset_id: int) -> list[int]:
        return sorted(self._tasks[subset_id].members)

    def iter_subsets(self):
        for task in self._tasks:
            yield task.task_index, sorted(task.members)


def run_rounds_mr(
    dataset: Sequence[Any],
    comp: Callable[[Any, Any], Any],
    schedule: Schedule,
    *,
    aggregator: Callable[[Sequence[Element]], Element] | None = None,
    engine=None,
) -> dict[int, Element]:
    """Execute a §7 schedule with each round as a real two-MR-job run.

    The deployment shape the paper sketches: per round, job 1 distributes
    the round's working sets and evaluates, job 2 aggregates — then the
    next round starts from the merged state.  Elements in no working set
    of a round skip that round's jobs entirely (no wasted shipping).
    """
    from .aggregate import ConcatAggregator
    from .pairwise import PairwiseComputation

    if len(dataset) != schedule.v:
        raise ValueError(
            f"dataset has {len(dataset)} elements, schedule expects {schedule.v}"
        )
    aggregate = aggregator or ConcatAggregator()
    current = _elements_by_id(dataset)

    for round_ in schedule.rounds():
        scheme = _RoundScheme(schedule.v, round_)
        participating = sorted(scheme._subsets_of)
        if not participating:
            continue
        # Compact ids 1..k for the round's participants (the MR pairwise
        # layer requires contiguous ids); remap pairs accordingly.
        to_local = {eid: i + 1 for i, eid in enumerate(participating)}
        to_global = {local: eid for eid, local in to_local.items()}

        local_round = Round(
            index=round_.index,
            tasks=tuple(
                ScheduledTask(
                    round_index=task.round_index,
                    task_index=task.task_index,
                    members=tuple(sorted(to_local[eid] for eid in task.members)),
                    pairs=tuple(
                        (max(to_local[i], to_local[j]), min(to_local[i], to_local[j]))
                        for i, j in task.pairs
                    ),
                )
                for task in round_.tasks
            ),
        )
        local_scheme = _RoundScheme(len(participating), local_round)
        computation = PairwiseComputation(
            local_scheme,  # type: ignore[arg-type]
            comp,
            engine=engine,
        )
        payloads = [current[to_global[i + 1]].payload for i in range(len(participating))]
        merged_local = computation.run(payloads)
        # Fold the round's results back into the global elements.
        for local_id, local_element in merged_local.items():
            global_element = current[to_global[local_id]]
            carried = Element(
                global_element.eid, global_element.payload, dict(global_element.results)
            )
            contribution = Element(global_element.eid, global_element.payload)
            for local_partner, result in local_element.results.items():
                contribution.results[to_global[local_partner]] = result
            current[global_element.eid] = aggregate([carried, contribution])
    return current


def check_schedule_exactly_once(schedule: Schedule) -> tuple[bool, str]:
    """Global exactly-once coverage across all rounds of a schedule."""
    seen: dict[Pair, int] = {}
    for round_ in schedule.rounds():
        for task in round_.tasks:
            member_set = set(task.members)
            for i, j in task.pairs:
                if i <= j:
                    return False, f"non-canonical pair ({i}, {j}) in round {round_.index}"
                if i not in member_set or j not in member_set:
                    return False, (
                        f"pair ({i}, {j}) not locally servable in round "
                        f"{round_.index} task {task.task_index}"
                    )
                seen[(i, j)] = seen.get((i, j), 0) + 1
    expected = triangle_count(schedule.v)
    if len(seen) != expected:
        return False, f"covered {len(seen)} pairs, expected {expected}"
    duplicates = [pair for pair, count in seen.items() if count != 1]
    if duplicates:
        return False, f"duplicated pairs: {duplicates[:5]}"
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
