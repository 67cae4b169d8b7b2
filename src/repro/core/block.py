"""The block distribution scheme (paper §5.2).

The element indices ``1 … v`` are cut into ``h`` contiguous groups of edge
length ``e = ⌈v/h⌉``, tiling the upper triangle of the pair matrix with
``h(h+1)/2`` rectangular blocks (Fig. 6).  Block ``p`` sits at grid
position ``(I, J)``, ``I ≥ J``, recovered from

    p(I, J) = I(I − 1)/2 + J

and owns working set ``D_p = R_p ∪ C_p`` — the row group ``J`` plus the
column group ``I`` — evaluating every cross pair (or, on the diagonal
``I = J``, the half-triangle within the single group).

Table-1 characteristics: tasks ``h(h+1)/2``, communication ``2vh``,
replication ``h``, working set ``2⌈v/h⌉``, up to ``⌈v/h⌉²`` evaluations per
task.  The blocking factor ``h`` is the scheme's tuning knob: it trades
working-set size (``∝ 1/h``) against intermediate storage (``∝ h``), the
subject of Fig. 9a.

The paper notes diagonal blocks do only half the work "if always two such
diagonal blocks are processed together"; ``pair_diagonals=True`` implements
exactly that fusion.
"""

from __future__ import annotations

from typing import Sequence

from .._util import ceil_div
from .scheme import Cross, DistributionScheme, SchemeMetrics, Tile, Triangle


class BlockScheme(DistributionScheme):
    """Block scheme over a grid of ``h × h`` element groups.

    Parameters
    ----------
    v:
        Dataset cardinality.
    h:
        Blocking factor, ``1 <= h <= v``.  If ``⌈v/h⌉`` groups don't fill
        ``h`` rows (small v), the effective factor shrinks to the actual
        group count; :attr:`h` reflects the effective value.
    pair_diagonals:
        Fuse diagonal blocks pairwise — (1,1)+(2,2), (3,3)+(4,4), … — so
        every task performs ≈ e² evaluations (paper §5.2's balancing note).
    """

    name = "block"

    def __init__(self, v: int, h: int, *, pair_diagonals: bool = False):
        super().__init__(v)
        if h < 1:
            raise ValueError(f"blocking factor must be >= 1, got {h}")
        if h > v:
            raise ValueError(f"blocking factor {h} exceeds dataset size {v}")
        self.h_requested = h
        #: group edge length e = ⌈v/h⌉
        self.e = ceil_div(v, h)
        #: effective blocking factor: number of non-empty groups
        self.h = ceil_div(v, self.e)
        self.pair_diagonals = pair_diagonals
        self._num_blocks = self.h * (self.h + 1) // 2
        if pair_diagonals:
            self._build_paired_tasks()

    # -- grid arithmetic -------------------------------------------------------
    def group_of(self, element_id: int) -> int:
        """1-indexed group g containing element s_id: g = ⌈id / e⌉."""
        self._check_element_id(element_id)
        return (element_id - 1) // self.e + 1

    def group_members(self, group: int) -> list[int]:
        """Element ids of group ``g``: (g−1)e+1 … min(ge, v)."""
        if not 1 <= group <= self.h:
            raise ValueError(f"group {group} out of range [1, {self.h}]")
        return list(self._group_range(group))

    def _group_range(self, group: int) -> range:
        return range((group - 1) * self.e + 1, min(group * self.e, self.v) + 1)

    def block_position(self, block: int) -> tuple[int, int]:
        """Grid position (I, J), I >= J >= 1, of 1-indexed block id ``p``.

        Inverts ``p = I(I−1)/2 + J``: I is the largest integer with
        ``I(I−1)/2 < p``.
        """
        if not 1 <= block <= self._num_blocks:
            raise ValueError(f"block {block} out of range [1, {self._num_blocks}]")
        I = 1
        while (I + 1) * I // 2 < block:
            I += 1
        J = block - I * (I - 1) // 2
        return (I, J)

    def block_id(self, I: int, J: int) -> int:
        """1-indexed block id of grid position (I, J) with I >= J >= 1."""
        if not 1 <= J <= I <= self.h:
            raise ValueError(f"invalid block position (I={I}, J={J}) for h={self.h}")
        return I * (I - 1) // 2 + J

    def blocks_of_element(self, element_id: int) -> list[int]:
        """1-indexed block ids whose working set contains the element.

        Element in group g appears in row position J=g of blocks (I, g) for
        I = g…h and in column position of blocks (g, J) for J = 1…g−1 —
        exactly ``h`` blocks, the scheme's replication factor.
        """
        g = self.group_of(element_id)
        blocks = [self.block_id(g, J) for J in range(1, g + 1)]
        blocks.extend(self.block_id(I, g) for I in range(g + 1, self.h + 1))
        return blocks

    def block_members(self, block: int) -> list[int]:
        """Working set D_p = R_p ∪ C_p of a 1-indexed block id."""
        I, J = self.block_position(block)
        if I == J:
            return self.group_members(I)
        return self.group_members(J) + self.group_members(I)

    def block_tile(self, block: int) -> Tile:
        """Pair relation P_p of one block: cross pairs, or the diagonal half."""
        I, J = self.block_position(block)
        if I == J:
            return Triangle(self._group_range(I))
        # Column ids are strictly greater than row ids (I > J), so (c, r)
        # is already in canonical i > j orientation.
        return Cross(self._group_range(I), self._group_range(J))

    # -- task fusion for paired diagonals ---------------------------------------
    def _build_paired_tasks(self) -> None:
        """Task table fusing diagonal blocks pairwise (trailing one stays solo)."""
        tasks: list[list[int]] = []
        # Off-diagonal blocks: one task each.
        for p in range(1, self._num_blocks + 1):
            I, J = self.block_position(p)
            if I != J:
                tasks.append([p])
        # Diagonal blocks fused two at a time.
        diagonals = [self.block_id(g, g) for g in range(1, self.h + 1)]
        for idx in range(0, len(diagonals) - 1, 2):
            tasks.append([diagonals[idx], diagonals[idx + 1]])
        if len(diagonals) % 2 == 1:
            tasks.append([diagonals[-1]])
        self._tasks = tasks
        self._block_to_task = {
            block: task_id for task_id, blocks in enumerate(tasks) for block in blocks
        }

    # -- DistributionScheme interface --------------------------------------------
    @property
    def num_tasks(self) -> int:
        if self.pair_diagonals:
            return len(self._tasks)
        return self._num_blocks

    def get_subsets(self, element_id: int) -> list[int]:
        blocks = self.blocks_of_element(element_id)
        if self.pair_diagonals:
            # A fused task may contain two of the element's blocks (both
            # diagonals can't hold the same element, but stay defensive).
            seen: dict[int, None] = {}
            for block in blocks:
                seen.setdefault(self._block_to_task[block], None)
            return list(seen)
        return [block - 1 for block in blocks]  # 0-indexed task ids

    def pair_tiles(
        self, subset_id: int, members: Sequence[int] | None = None
    ) -> tuple[Tile, ...]:
        """The task's blocks; derived from grid math, ``members`` unused."""
        self._check_subset_id(subset_id)
        if self.pair_diagonals:
            return tuple(self.block_tile(block) for block in self._tasks[subset_id])
        return (self.block_tile(subset_id + 1),)

    def subset_members(self, subset_id: int) -> list[int]:
        self._check_subset_id(subset_id)
        if self.pair_diagonals:
            members: set[int] = set()
            for block in self._tasks[subset_id]:
                members.update(self.block_members(block))
            return sorted(members)
        return sorted(self.block_members(subset_id + 1))

    def _group_size(self, group: int) -> int:
        """Cardinality of group g without materializing it."""
        return len(self._group_range(group))

    def _block_profile(self, block: int) -> tuple[int, int]:
        """(members, evaluations) of one 1-indexed block, O(1)."""
        I, J = self.block_position(block)
        if I == J:
            n = self._group_size(I)
            return n, n * (n - 1) // 2
        rows, cols = self._group_size(J), self._group_size(I)
        return rows + cols, rows * cols

    def task_profile(self, subset_id: int):
        from .scheme import TaskProfile

        self._check_subset_id(subset_id)
        if self.pair_diagonals:
            members = evals = 0
            for block in self._tasks[subset_id]:
                m, ev = self._block_profile(block)
                members += m
                evals += ev
            return TaskProfile(subset_id, members, evals)
        members, evals = self._block_profile(subset_id + 1)
        return TaskProfile(subset_id, members, evals)

    def metrics(self) -> SchemeMetrics:
        h, e = self.h, self.e
        num_tasks = self.num_tasks
        total_pairs = self.v * (self.v - 1) / 2
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=num_tasks,
            communication_records=2 * self.v * h,
            replication_factor=float(h),
            working_set_elements=2 * e,
            evaluations_per_task=float(e * e) if not self.pair_diagonals
            else total_pairs / num_tasks,
        )

    def describe(self) -> str:
        tag = ", paired-diagonals" if self.pair_diagonals else ""
        return (
            f"block(v={self.v}, h={self.h}, e={self.e}, "
            f"tasks={self.num_tasks}{tag})"
        )
