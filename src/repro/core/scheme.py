"""The distribution-scheme interface (paper §5).

A *distribution scheme* answers the two questions a concrete pairwise
algorithm needs (paper §4):

1. **getSubsets** — which working sets does element ``s_i`` belong to?
   (drives the map phase of the distribution job), and
2. **getPairs** — which pairs does working set ``D_l`` evaluate?
   (drives the reduce phase).

Together they define the systems ``D`` (working sets) and ``P`` (pair
relations) of §5's formal problem, subject to:

  (a) balanced work across tasks, and
  (b) every unordered pair evaluated **exactly once** over all tasks.

This is the only schema interface: the flat schemes, a two-set rectangle
(:mod:`~repro.core.bipartite`) and one round of a sequential schedule
(:mod:`~repro.core.hierarchical`) all implement it.  The last two cover
fewer pairs than the full triangle and say so through two read-only facts,
:meth:`DistributionScheme.required_pairs` (the pairs demand (b) is about)
and :meth:`DistributionScheme.participants` (the elements in some working
set); validation, execution and simulation read those instead of assuming
``v(v−1)/2`` pairs over ids ``1..v``.

Task/working-set ids are 0-indexed ints in ``[0, num_tasks)``; element ids
are 1-indexed (``s1 … sv``) as in the paper.  :class:`SchemeMetrics`
captures a scheme's Table-1 row — the analytic values; the cluster
simulator measures the empirical counterparts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Sequence

from .._util import format_bytes

Pair = tuple[int, int]


@dataclass(frozen=True)
class SchemeMetrics:
    """One row of the paper's Table 1, in element/record units.

    - ``num_tasks`` — p, the degree of parallelism.
    - ``communication_records`` — total element records shipped over the
      network across both jobs (the paper's "communication costs" counts
      each replica once for the computation and once for the aggregation,
      e.g. 2vh for the block scheme).
    - ``replication_factor`` — copies made of each element.
    - ``working_set_elements`` — elements a single task holds in memory.
    - ``evaluations_per_task`` — pair evaluations per task.
    """

    scheme: str
    v: int
    num_tasks: int
    communication_records: int
    replication_factor: float
    working_set_elements: int
    evaluations_per_task: float

    def communication_bytes(self, element_size: int) -> int:
        """Communication volume in bytes for a given element payload size."""
        return int(self.communication_records * element_size)

    def working_set_bytes(self, element_size: int) -> int:
        """Per-task memory footprint in bytes for a given element size."""
        return int(self.working_set_elements * element_size)

    def intermediate_bytes(self, element_size: int) -> int:
        """Materialized intermediate data: all replicas at once (paper §6).

        This is what the paper compares against ``maxis``: the replicated
        dataset written between the two jobs, ``v · s · replication``.
        """
        return int(self.v * element_size * self.replication_factor)

    def summary(self, element_size: int | None = None) -> str:
        """One-line human-readable report (used by the bench harness)."""
        parts = [
            f"{self.scheme}: tasks={self.num_tasks}",
            f"comm={self.communication_records} recs",
            f"repl={self.replication_factor:g}",
            f"ws={self.working_set_elements} elems",
            f"evals/task={self.evaluations_per_task:g}",
        ]
        if element_size is not None:
            parts.append(f"ws_bytes={format_bytes(self.working_set_bytes(element_size))}")
            parts.append(f"interm={format_bytes(self.intermediate_bytes(element_size))}")
        return "  ".join(parts)


@dataclass(frozen=True)
class TaskProfile:
    """Per-task size profile used by the cluster simulator.

    ``payload_bytes`` is the exact byte footprint of the task's working
    set when the scheme knows per-element sizes (the skew-aware quorum
    variant); ``None`` means only the cardinality is known and
    :meth:`working_set_bytes` falls back to ``members × element_size``.
    """

    subset_id: int
    num_members: int
    num_evaluations: int
    payload_bytes: int | None = None

    def working_set_bytes(self, element_size: int) -> int:
        if self.payload_bytes is not None:
            return self.payload_bytes
        return self.num_members * element_size


def replication_lower_bound(v: int, capacity: int) -> float:
    """Afrati/Ullman replication-rate lower bound ``r ≥ (v−1)/(q−1)``.

    A reducer holding ``q_l ≤ q`` elements covers at most
    ``q_l (q−1) / 2`` pairs, so summing over reducers:
    ``v(v−1)/2 ≤ (q−1)/2 · Σ q_l`` and the replication rate
    ``r = Σ q_l / v`` is at least ``(v−1)/(q−1)``.  A perfect difference
    set (``v = q̂² + q̂ + 1``, capacity ``q̂ + 1``) meets it with equality;
    the coarser form the mapping-schema paper quotes, ``v/(2q)``, is this
    bound weakened by a factor ≈ 2.
    """
    if v < 2:
        raise ValueError(f"need v >= 2, got {v}")
    if capacity < 2:
        raise ValueError(f"reducer capacity must be >= 2 elements, got {capacity}")
    return (v - 1) / (capacity - 1)


@dataclass(frozen=True)
class ReplicationReport:
    """Achieved replication vs the capacity-matched theoretical floor.

    Produced by :meth:`DistributionScheme.replication_report` for every
    scheme; the engine counters and the ``repro replication`` CLI
    subcommand are thin views over this.  ``capacity_elements`` is the
    scheme's own working-set size — the bound is evaluated at the
    capacity the scheme actually uses, so ``optimality_ratio`` isolates
    distribution quality from the capacity choice itself.

    ``max_task_bytes`` / ``mean_task_bytes`` are filled only when the
    scheme knows per-element sizes (skew-aware quorum); ``bytes_skew``
    is their ratio — 1.0 means perfectly byte-balanced tasks.
    """

    scheme: str
    v: int
    capacity_elements: int
    replication_achieved: float
    replication_lower_bound: float
    max_task_bytes: int | None = None
    mean_task_bytes: float | None = None

    @property
    def optimality_ratio(self) -> float:
        """``achieved / bound`` — 1.0 is replication-optimal."""
        return self.replication_achieved / self.replication_lower_bound

    @property
    def bytes_skew(self) -> float | None:
        """``max / mean`` task bytes, when per-element sizes are known."""
        if self.max_task_bytes is None or not self.mean_task_bytes:
            return None
        return self.max_task_bytes / self.mean_task_bytes

    def shuffle_bytes_floor(self, element_size: int) -> int:
        """Minimum bytes one shuffle leg must move at this capacity.

        Every replica crosses the network once per leg, and any
        exactly-once scheme must emit at least ``bound × v`` replicas.
        """
        return int(self.replication_lower_bound * self.v * element_size)

    def summary(self) -> str:
        parts = [
            f"{self.scheme}: repl={self.replication_achieved:g}",
            f"bound={self.replication_lower_bound:.2f}",
            f"ratio={self.optimality_ratio:.3f}",
            f"capacity={self.capacity_elements}",
        ]
        skew = self.bytes_skew
        if skew is not None:
            parts.append(f"bytes_skew={skew:.2f}")
        return "  ".join(parts)


class DistributionScheme(abc.ABC):
    """Abstract base of every mapping schema: flat, two-set, or one round.

    Subclasses must be deterministic: the same ``(v, parameters)`` must
    always produce the same working sets and pair relations, because the
    map phase (get_subsets) and the reduce phase (get_pairs) run on
    different nodes and must agree on the partitioning.
    """

    #: short machine-readable name ("broadcast" / "block" / "design" / ...)
    name: str = "abstract"

    def __init__(self, v: int):
        if v < 2:
            raise ValueError(f"pairwise computation needs v >= 2 elements, got {v}")
        self.v = v

    # -- the two functions of paper §4 ---------------------------------------
    @abc.abstractmethod
    def get_subsets(self, element_id: int) -> list[int]:
        """Working-set ids (0-indexed tasks) that element ``element_id`` joins."""

    @abc.abstractmethod
    def get_pairs(self, subset_id: int, members: Sequence[int]) -> list[Pair]:
        """Pairs ``(i, j)`` with i > j that task ``subset_id`` must evaluate.

        ``members`` is the sorted list of element ids that arrived at the
        reducer for this working set; schemes may use it (design) or ignore
        it in favour of closed-form index math (broadcast, block).
        """

    # -- structure ------------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_tasks(self) -> int:
        """Number of working sets b (= independent tasks)."""

    @abc.abstractmethod
    def metrics(self) -> SchemeMetrics:
        """The analytic Table-1 row for this scheme instance."""

    # -- what the schema covers ------------------------------------------------
    def required_pairs(self) -> frozenset[Pair] | None:
        """The pairs ``(i, j)``, i > j, to cover exactly once; ``None`` ≡ all of them."""
        return None

    def participants(self) -> Sequence[int]:
        """Ascending ids of the elements in some working set — O(1), a stored fact."""
        return range(1, self.v + 1)

    # -- derived helpers (shared implementations) -----------------------------
    def task_profile(self, subset_id: int) -> "TaskProfile":
        """Size profile of one task: member count and evaluation count.

        The default materializes the members and pairs; every concrete
        scheme overrides this with closed-form O(1) math so the cluster
        simulator can profile millions of tasks cheaply.
        """
        members = self.subset_members(subset_id)
        return TaskProfile(
            subset_id=subset_id,
            num_members=len(members),
            num_evaluations=len(self.get_pairs(subset_id, members)),
        )

    def subset_members(self, subset_id: int) -> list[int]:
        """All element ids of working set ``subset_id``, ascending.

        Default implementation inverts :meth:`get_subsets` by scanning the
        participants — O(v · replication).  Subclasses with closed-form working
        sets override this with direct construction.
        """
        self._check_subset_id(subset_id)
        return [
            eid for eid in self.participants() if subset_id in self.get_subsets(eid)
        ]

    def iter_subsets(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(subset_id, members)`` for every working set."""
        for subset_id in range(self.num_tasks):
            yield subset_id, self.subset_members(subset_id)

    def all_pairs(self) -> Iterator[Pair]:
        """Every pair the scheme evaluates, across all tasks (for validation)."""
        for subset_id, members in self.iter_subsets():
            yield from self.get_pairs(subset_id, members)

    def replication_report(self) -> ReplicationReport:
        """Achieved replication vs the lower bound at this scheme's capacity.

        The default derives both sides from :meth:`metrics`; schemes that
        know per-element byte sizes (skew-aware quorum) override to fill
        the task-bytes skew fields as well.  Over a declared universe of
        ``|P|`` pairs the same counting argument gives
        ``r = Σ q_l / v ≥ 2|P| / ((q−1) · v)``, which is
        :func:`replication_lower_bound` when ``P`` is the triangle.
        """
        m = self.metrics()
        capacity = max(2, m.working_set_elements)
        required = self.required_pairs()
        return ReplicationReport(
            scheme=self.name,
            v=self.v,
            capacity_elements=capacity,
            replication_achieved=m.replication_factor,
            replication_lower_bound=(
                replication_lower_bound(self.v, capacity)
                if required is None
                else 2 * len(required) / ((capacity - 1) * self.v)
            ),
        )

    def describe(self) -> str:
        """Human-readable description of the configured scheme."""
        return f"{self.name}(v={self.v}, tasks={self.num_tasks})"

    def _check_subset_id(self, subset_id: int) -> None:
        if not 0 <= subset_id < self.num_tasks:
            raise ValueError(
                f"subset id {subset_id} out of range [0, {self.num_tasks})"
            )

    def _check_element_id(self, element_id: int) -> None:
        if not 1 <= element_id <= self.v:
            raise ValueError(
                f"element id {element_id} out of range [1, {self.v}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
