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

from ..designs import plane_order_for, plane_size, projective_plane, truncate_design
from .scheme import DistributionScheme, SchemeMetrics, Tile, Triangle


def _communication_cap(v: int, num_nodes: int | None) -> float:
    """Table 1's ``2vn`` cap on communication records; none without ``num_nodes``."""
    if num_nodes is None:
        return math.inf
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    return 2 * v * num_nodes


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
        num_nodes: int | None = None,
    ):
        super().__init__(v)
        self.q = plane_order_for(v, allow_prime_powers=allow_prime_powers)
        self.plane_points = plane_size(self.q)
        self.num_nodes = num_nodes
        self._communication_cap = _communication_cap(v, num_nodes)
        full_plane = projective_plane(self.q)
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
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=self.num_tasks,
            communication_records=min(2 * total_membership, self._communication_cap),
            replication_factor=total_membership / self.v,
            working_set_elements=max(len(block) for block in self.blocks),
            evaluations_per_task=total_pairs / self.num_tasks,
        )

    @staticmethod
    def approx_metrics(v: int, num_nodes: int | None = None) -> SchemeMetrics:
        """The paper's √v-approximation Table-1 row (for comparison)."""
        sqrt_v = math.sqrt(v)
        return SchemeMetrics(
            scheme="design(approx)",
            v=v,
            num_tasks=v,
            communication_records=int(min(2 * v * sqrt_v, _communication_cap(v, num_nodes))),
            replication_factor=sqrt_v,
            working_set_elements=int(math.ceil(sqrt_v)),
            evaluations_per_task=(v - 1) / 2,
        )

    def describe(self) -> str:
        return (
            f"design(v={self.v}, q={self.q}, plane={self.plane_points}, "
            f"tasks={self.num_tasks})"
        )
