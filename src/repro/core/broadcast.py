"""The broadcast distribution scheme (paper §5.1).

Intended for *moderate datasets with expensive functions*: every working
set is the whole dataset (``D_1 = … = D_p = S``), so each of the ``p``
tasks holds all ``v`` elements in memory.  Balance comes from the pair
relation: the strict upper triangle is enumerated (Fig. 5) and task ``l``
(1-indexed) evaluates the contiguous label chunk

    (l − 1)·h + 1  …  min(l·h, T),      h = ⌈T / p⌉,  T = v(v−1)/2.

Table-1 characteristics: tasks ``p`` (arbitrary — the scheme's strength),
communication ``2vp`` records, replication ``p``, working set ``v``
elements (its weakness — see Fig. 8a), ``≈ T/p`` evaluations per task.

Because the working sets are trivial, the paper ships the dataset through
Hadoop's *distributed cache* instead of the shuffle, in one MR job; here that
is the cached plan of every scheme
(:meth:`~repro.core.pairwise.PairwiseComputation.run_cached`).
"""

from __future__ import annotations

from typing import Sequence

from .._util import ceil_div, triangle_count
from .scheme import DistributionScheme, Rows, SchemeMetrics, Tile
from .triangle import elements_in_labels, label_pair_array, labels_for_task


class BroadcastScheme(DistributionScheme):
    """Broadcast scheme: full replication, label-range pair partitioning.

    Parameters
    ----------
    v:
        Dataset cardinality.
    num_tasks:
        Degree of parallelism ``p``; any positive integer (typically the
        node count).  Tasks beyond the number of pairs receive empty ranges.
    """

    name = "broadcast"

    def __init__(self, v: int, num_tasks: int):
        super().__init__(v)
        if num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
        self._num_tasks = num_tasks
        self._total_pairs = triangle_count(v)
        #: pairs per task, the paper's h = ⌈v(v−1)/2p⌉
        self.chunk = ceil_div(self._total_pairs, num_tasks) if v >= 2 else 0

    @property
    def num_tasks(self) -> int:
        return self._num_tasks

    def get_subsets(self, element_id: int) -> list[int]:
        """Every element joins every working set (D_l = S for all l)."""
        self._check_element_id(element_id)
        return list(range(self._num_tasks))

    def pair_tiles(self, subset_id: int, members: Sequence[int] | None = None) -> tuple[Tile, ...]:
        """The label chunk of task ``subset_id``; ``members`` is ignored.

        The pair relation depends only on (v, p, subset_id) — the reducer
        holds the full dataset anyway, so there is nothing to look up in
        ``members``.
        """
        return (Rows(label_pair_array(self.task_labels(subset_id))),)

    def task_labels(self, subset_id: int) -> range:
        """Contiguous label range (Fig. 5 enumeration) of one task."""
        self._check_subset_id(subset_id)
        return labels_for_task(subset_id, self._num_tasks, self.v)

    def effective_working_set(self, subset_id: int) -> set[int]:
        """Element ids a task actually touches.

        The scheme *ships* all v elements to every task; this reports the
        subset the task's pair chunk really reads, quantifying the waste
        that motivates the block scheme.
        """
        return elements_in_labels(self.task_labels(subset_id))

    def subset_members(self, subset_id: int) -> list[int]:
        self._check_subset_id(subset_id)
        return list(range(1, self.v + 1))

    def task_profile(self, subset_id: int):
        from .scheme import TaskProfile

        return TaskProfile(
            subset_id=subset_id,
            num_members=self.v,
            num_evaluations=len(self.task_labels(subset_id)),
        )

    def metrics(self) -> SchemeMetrics:
        p = self._num_tasks
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=p,
            communication_records=2 * self.v * p,
            replication_factor=float(p),
            working_set_elements=self.v,
            evaluations_per_task=self._total_pairs / p,
        )

    def describe(self) -> str:
        return (
            f"broadcast(v={self.v}, tasks={self._num_tasks}, "
            f"pairs/task<={self.chunk})"
        )
