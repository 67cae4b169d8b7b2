"""The design distribution scheme (paper §5.3).

Working sets are the *lines of a projective plane*: a
``(q²+q+1, q+1, 1)``-design's defining property — every 2-element subset
lies in **exactly one** block — is precisely the exactly-once requirement
of §5's formal problem, with no index arithmetic needed at evaluation time.

Construction (paper Theorems 1–2):

1. pick the smallest prime ``q`` (optionally prime power) with
   ``q̂ = q² + q + 1 ≥ v``;
2. build the plane of order q — blocks of ``q+1`` points over ``1 … q̂``;
3. if ``v < q̂``, drop the non-existent points from every block and drop
   blocks left with < 2 points (the paper's "design-like" relaxation —
   a ≤1-point block induces no pairs).

Table-1 characteristics (using √v ≈ q+1): tasks ``q²+q+1 ≥ v`` (not
tunable — the scheme's weakness), communication ``≈ 2v√v`` records (capped
at ``2vn`` since a node needs each element at most once), replication
``≈ √v`` (its other weakness — see Fig. 8b), working set ``≈ √v`` elements
(its strength), ``≈ (v−1)/2`` evaluations per task.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..designs import plane_order_for, plane_size, projective_plane, truncate_design
from ..designs.difference_sets import singer_difference_set
from .scheme import DistributionScheme, SchemeMetrics, Tile, Triangle, tile_rows


class DesignScheme(DistributionScheme):
    """Design scheme backed by a (possibly truncated) projective plane.

    Parameters
    ----------
    v:
        Dataset cardinality.
    allow_prime_powers:
        Search plane orders over prime *powers* instead of primes only.
        The paper restricts itself to primes (its Theorem-2 construction
        uses mod-q arithmetic); prime powers can reduce replication when v
        lands just above a prime-power plane (e.g. v = 21 → q = 4 vs 5)
        and are served by the GF(q) construction.
    prefer_lee:
        Use the paper's fast Lee-et-al construction when q is prime
        (otherwise the generic GF construction is used for primes too).
    num_nodes:
        Optional cluster size n; only used to cap the communication-cost
        metric at ``2vn`` as in Table 1 (a node stores each element once
        no matter how many of its tasks share it).
    """

    name = "design"

    def __init__(
        self,
        v: int,
        *,
        allow_prime_powers: bool = False,
        prefer_lee: bool = True,
        num_nodes: int | None = None,
    ):
        super().__init__(v)
        self.q = plane_order_for(v, allow_prime_powers=allow_prime_powers)
        self.plane_points = plane_size(self.q)
        self.num_nodes = num_nodes
        full_plane = projective_plane(self.q, prefer_lee=prefer_lee)
        self.blocks: list[list[int]] = [
            sorted(block) for block in truncate_design(full_plane, v, min_block=2)
        ]
        # point -> task-id index for get_subsets (O(v·(q+1)) memory).
        index: dict[int, list[int]] = {}
        for task_id, block in enumerate(self.blocks):
            for point in block:
                index.setdefault(point, []).append(task_id)
        self._subsets_of = index

    @property
    def num_tasks(self) -> int:
        return len(self.blocks)

    def get_subsets(self, element_id: int) -> list[int]:
        """Tasks whose plane line passes through the element's point."""
        self._check_element_id(element_id)
        # Every point of a projective plane lies on q+1 >= 3 lines; after
        # truncation some may have been dropped, but at least one survives
        # for v >= 2 ... unless the element pairs with nothing (v == 1,
        # excluded by the base class).
        return list(self._subsets_of.get(element_id, []))

    def pair_tiles(
        self, subset_id: int, members: Sequence[int] | None = None
    ) -> tuple[Tile, ...]:
        """Full pair relation within the working set (paper §5.3's P_l): one triangle.

        Uses the reducer-provided ``members`` when given (mirroring
        Algorithm 1's ``getPairs(D, [element])``), falling back to the
        scheme's own block definition; both must agree, and a mismatch
        raises rather than silently dropping pairs.
        """
        self._check_subset_id(subset_id)
        block = self.blocks[subset_id]
        if members is not None and len(members) > 0:
            if sorted(members) != block:
                raise ValueError(
                    f"task {subset_id} received members {sorted(members)} "
                    f"but the design block is {block}"
                )
        return (Triangle(block),)

    def pair_array(self, subset_id: int, members: Sequence[int] | None = None) -> np.ndarray:
        return tile_rows(self.pair_tiles(subset_id, members))

    def subset_members(self, subset_id: int) -> list[int]:
        self._check_subset_id(subset_id)
        return list(self.blocks[subset_id])

    def task_profile(self, subset_id: int):
        from .scheme import TaskProfile

        self._check_subset_id(subset_id)
        k = len(self.blocks[subset_id])
        return TaskProfile(subset_id, k, k * (k - 1) // 2)

    def replication_of(self, element_id: int) -> int:
        """Exact number of working sets containing the element."""
        return len(self.get_subsets(element_id))

    def metrics(self) -> SchemeMetrics:
        """Exact Table-1 row measured on the constructed structure.

        The paper reports the √v approximations; we report the exact values
        of the concrete truncated plane (mean replication, max block size,
        mean pairs per task) so theory-vs-measured comparisons are sharp.
        The ``2vn`` cap on communication applies when ``num_nodes`` is set.
        """
        total_membership = sum(len(block) for block in self.blocks)
        total_pairs = sum(
            len(block) * (len(block) - 1) // 2 for block in self.blocks
        )
        comm = 2 * total_membership
        if self.num_nodes is not None:
            comm = min(comm, 2 * self.v * self.num_nodes)
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=self.num_tasks,
            communication_records=comm,
            replication_factor=total_membership / self.v,
            working_set_elements=max(len(block) for block in self.blocks),
            evaluations_per_task=total_pairs / self.num_tasks,
        )

    @staticmethod
    def approx_metrics(v: int, num_nodes: int | None = None) -> SchemeMetrics:
        """The paper's √v-approximation Table-1 row (for comparison)."""
        sqrt_v = math.sqrt(v)
        comm = 2 * v * sqrt_v
        if num_nodes is not None:
            comm = min(comm, 2 * v * num_nodes)
        return SchemeMetrics(
            scheme="design(approx)",
            v=v,
            num_tasks=v,
            communication_records=int(comm),
            replication_factor=sqrt_v,
            working_set_elements=int(math.ceil(sqrt_v)),
            evaluations_per_task=(v - 1) / 2,
        )

    def describe(self) -> str:
        return (
            f"design(v={self.v}, q={self.q}, plane={self.plane_points}, "
            f"tasks={self.num_tasks})"
        )


class CyclicDesignScheme(DistributionScheme):
    """Design scheme from a Singer difference set — O(√v) memory.

    :class:`DesignScheme` stores every block: O(v·√v) driver memory, the
    very quantity the scheme's *replication* already makes expensive.
    The Singer-cycle representation needs only the q+1 residues of a
    perfect difference set D mod q̂ = q²+q+1:

    - block t's points are ``(t + d) mod q̂`` (0-indexed), d ∈ D;
    - point p's blocks are ``(p − d) mod q̂``, d ∈ D;

    both answered in O(q) with no stored incidence structure — the same
    closed-form flavour the broadcast/block schemes enjoy.  Truncation
    to v < q̂ filters points on the fly; blocks left with < 2 points
    keep their task id but become empty (no members, no pairs), so task
    addressing stays O(1).

    The Singer construction exists for every prime-power order, so this
    scheme defaults to ``allow_prime_powers=True`` (strictly smaller
    planes than the prime-only search whenever a prime power fits).
    """

    name = "design-cyclic"

    def __init__(self, v: int, *, allow_prime_powers: bool = True):
        super().__init__(v)
        self.q = plane_order_for(v, allow_prime_powers=allow_prime_powers)
        self.q_hat = plane_size(self.q)
        self.difference_set = singer_difference_set(self.q)

    @property
    def num_tasks(self) -> int:
        return self.q_hat

    # -- O(q) incidence answers ------------------------------------------------
    def _block_points(self, task: int) -> list[int]:
        """Surviving 1-indexed points of block ``task`` after truncation."""
        points = [
            (task + d) % self.q_hat + 1
            for d in self.difference_set
            if (task + d) % self.q_hat < self.v
        ]
        return sorted(points)

    def subset_members(self, subset_id: int) -> list[int]:
        self._check_subset_id(subset_id)
        points = self._block_points(subset_id)
        return points if len(points) >= 2 else []

    def get_subsets(self, element_id: int) -> list[int]:
        self._check_element_id(element_id)
        point = element_id - 1
        tasks = []
        for d in self.difference_set:
            task = (point - d) % self.q_hat
            # Only join blocks that survive truncation with >= 2 points —
            # a singleton block induces no pairs (paper §5.3's dropping).
            if len(self._block_points(task)) >= 2:
                tasks.append(task)
        return sorted(tasks)

    def pair_tiles(
        self, subset_id: int, members: Sequence[int] | None = None
    ) -> tuple[Tile, ...]:
        block = self.subset_members(subset_id)
        if members is not None and len(members) > 0 and sorted(members) != block:
            raise ValueError(
                f"task {subset_id} received members {sorted(members)} "
                f"but the cyclic block is {block}"
            )
        return (Triangle(block),)

    def pair_array(self, subset_id: int, members: Sequence[int] | None = None) -> np.ndarray:
        return tile_rows(self.pair_tiles(subset_id, members))

    def task_profile(self, subset_id: int):
        from .scheme import TaskProfile

        self._check_subset_id(subset_id)
        k = len(self.subset_members(subset_id))
        return TaskProfile(subset_id, k, k * (k - 1) // 2)

    def metrics(self) -> SchemeMetrics:
        """Exact Table-1 row, computed from the cyclic structure.

        O(q̂ · q) time, O(1) extra memory — no block list materialized.
        """
        total_membership = 0
        total_pairs = 0
        max_ws = 0
        active_tasks = 0
        for task in range(self.q_hat):
            k = len(self.subset_members(task))
            if k:
                active_tasks += 1
            total_membership += k
            total_pairs += k * (k - 1) // 2
            max_ws = max(max_ws, k)
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=self.q_hat,
            communication_records=2 * total_membership,
            replication_factor=total_membership / self.v,
            working_set_elements=max_ws,
            evaluations_per_task=total_pairs / max(1, active_tasks),
        )

    def describe(self) -> str:
        return (
            f"design-cyclic(v={self.v}, q={self.q}, plane={self.q_hat}, "
            f"|D|={len(self.difference_set)})"
        )
