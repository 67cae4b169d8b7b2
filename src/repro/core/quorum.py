"""Cyclic-quorum distribution scheme: near-optimal replication for any v.

The design scheme (§5.3) is replication-optimal only when v is exactly a
projective-plane size ``q² + q + 1``; everywhere else it pads to the next
plane and pays the padded ``q + 1`` replication.  The quorum scheme drops
the prime-power constraint entirely: working set *t* is the translate
``{(t + d) mod v : d ∈ D}`` of a cyclic difference cover ``D`` (the
cyclic quorums of Kleinheksel & Somani), giving exactly v tasks of
``|D| ≈ √v`` elements for **arbitrary** v.

**Exactly-once pair ownership.**  A relaxed cover may express a
difference several ways, so two elements can share more than one quorum.
Ownership is therefore made canonical per *difference class*: for every
δ ∈ 1…⌊v/2⌋ one fixed representation ``d_i − d_j ≡ δ (mod v)`` with
``d_i, d_j ∈ D`` is chosen at construction, and quorum *t* evaluates the
single pair ``{(t + d_i) mod v, (t + d_j) mod v}`` for each class.  As t
ranges over Z_v this enumerates each unordered residue pair at cyclic
distance δ exactly once — except the self-paired class δ = v/2 of even v,
which translates t and t + v/2 both generate; the smaller translate owns
it.  Both endpoints lie in quorum t by construction, every pair has a
difference class, hence every pair is evaluated exactly once, in any
quorum, for any verified cover.  Work is perfectly balanced: every task
evaluates ⌊(v−1)/2⌋ or ⌈(v−1)/2⌉ pairs (truncated-design blocks range
from 1 to q+1 choose 2).

**Skew-aware assignment** (``element_sizes=``).  The residue an element
occupies decides which |D| quorums replicate it, so heterogeneous
element sizes (Afrati et al.'s different-sized-inputs regime) are
handled by choosing the residue↔element permutation: elements are
bin-packed in descending size order, each onto the free residue that
minimizes the worst resulting per-quorum byte load.  Pair coverage is
permutation-invariant — only per-task *bytes* change — and
:meth:`QuorumScheme.replication_report` reports the achieved max/mean
task-bytes skew.
"""

from __future__ import annotations

import statistics
from typing import Mapping, Sequence

import numpy as np

from ..designs.difference_covers import DifferenceCover, difference_cover
from .scheme import (
    DistributionScheme,
    Pair,
    ReplicationReport,
    Rows,
    SchemeMetrics,
    TaskProfile,
    Tile,
    replication_lower_bound,
)

#: above this many free residues, the skew-aware packer scores a strided
#: sample instead of every free residue, keeping construction ~O(v·k·256)
#: instead of O(v²·k) for large v.
_SKEW_SCAN_LIMIT = 256


def _normalize_sizes(v: int, element_sizes) -> list[int]:
    """Accept a length-v sequence (index eid−1) or an eid→size mapping."""
    if isinstance(element_sizes, Mapping):
        sizes = [int(element_sizes.get(eid, 0)) for eid in range(1, v + 1)]
    else:
        sizes = [int(s) for s in element_sizes]
        if len(sizes) != v:
            raise ValueError(
                f"element_sizes must have one entry per element: got {len(sizes)}, need {v}"
            )
    if any(s < 0 for s in sizes):
        raise ValueError("element sizes must be non-negative")
    return sizes


class QuorumScheme(DistributionScheme):
    """Difference-cover quorum scheme (tasks = translates of D mod v).

    Parameters
    ----------
    v:
        Number of elements; any v ≥ 2 (no prime-power constraint).
    element_sizes:
        Optional per-element byte sizes (sequence indexed by ``eid − 1``
        or mapping ``eid → bytes``).  Enables the skew-aware residue
        assignment; omit for the identity assignment.
    cover:
        Optional explicit :class:`DifferenceCover` (or bare residue
        iterable) overriding the cached per-v construction — used by
        tests to pin a specific cover.
    """

    name = "quorum"

    def __init__(
        self,
        v: int,
        *,
        element_sizes: Sequence[int] | Mapping[int, int] | None = None,
        cover: DifferenceCover | Sequence[int] | None = None,
    ):
        super().__init__(v)
        if cover is None:
            cover = difference_cover(v)
        elif not isinstance(cover, DifferenceCover):
            from ..designs.difference_covers import verify_difference_cover

            residues = tuple(sorted(set(int(r) % v for r in cover)))
            if not verify_difference_cover(residues, v):
                raise ValueError(f"not a difference cover of Z_{v}: {residues}")
            cover = DifferenceCover(v=v, residues=residues, kind="explicit")
        elif cover.v != v:
            raise ValueError(f"cover is for v={cover.v}, scheme has v={v}")
        self.cover = cover
        self.residues = cover.residues
        self._reps = self._canonical_reps()
        self.element_sizes = (
            None if element_sizes is None else _normalize_sizes(v, element_sizes)
        )
        if self.element_sizes is None:
            # identity assignment: element eid sits at residue eid − 1
            self._element_at: list[int] | None = None
            self._residue_of: list[int] | None = None
        else:
            self._element_at, self._residue_of = self._pack_by_size(self.element_sizes)

    # -- construction helpers -------------------------------------------------
    def _canonical_reps(self) -> list[Pair]:
        """``reps[δ−1] = (d_i, d_j)`` with ``d_i − d_j ≡ δ (mod v)``.

        First hit in the sorted double scan wins, so the table is
        deterministic for a given cover.  A verified cover realizes every
        non-zero residue, so all ⌊v/2⌋ classes get a representative.
        """
        v = self.v
        by_delta: dict[int, Pair] = {}
        for d_j in self.residues:
            for d_i in self.residues:
                if d_i == d_j:
                    continue
                delta = (d_i - d_j) % v
                if delta not in by_delta:
                    by_delta[delta] = (d_i, d_j)
        try:
            return [by_delta[delta] for delta in range(1, v // 2 + 1)]
        except KeyError as exc:  # pragma: no cover - covers are pre-verified
            raise ValueError(f"cover does not realize difference {exc} mod {v}") from exc

    def _pack_by_size(self, sizes: list[int]) -> tuple[list[int], list[int]]:
        """Greedy byte-balanced residue assignment (deterministic).

        Heaviest element first, each placed on the free residue whose
        |D| containing quorums end up with the smallest worst-case byte
        load.  The tie-break is the *total* load across the touched
        quorums: once two heavy elements must share a quorum (any two
        residues co-occur somewhere — that is the covering property),
        the secondary criterion spreads the forced meetings over
        different quorums instead of stacking a third heavy onto one.
        Final tie → smallest residue, keeping the packing deterministic.
        For large v only a ~256-residue strided sample of the free set
        is scored per element.
        """
        v = self.v
        quorums_of = [[(r - d) % v for d in self.residues] for r in range(v)]
        order = sorted(range(1, v + 1), key=lambda eid: (-sizes[eid - 1], eid))
        loads = [0] * v
        element_at = [0] * v
        residue_of = [0] * (v + 1)
        free: list[int] = list(range(v))
        for eid in order:
            size = sizes[eid - 1]
            stride = max(1, len(free) // _SKEW_SCAN_LIMIT)
            best_r = -1
            best_key = None
            for idx in range(0, len(free), stride):
                r = free[idx]
                touched = [loads[q] for q in quorums_of[r]]
                key = (max(touched) + size, sum(touched), r)
                if best_key is None or key < best_key:
                    best_key, best_r = key, r
            free.remove(best_r)
            element_at[best_r] = eid
            residue_of[eid] = best_r
            for q in quorums_of[best_r]:
                loads[q] += size
        return element_at, residue_of

    # -- residue <-> element mapping ------------------------------------------
    def _residue(self, element_id: int) -> int:
        if self._residue_of is None:
            return element_id - 1
        return self._residue_of[element_id]

    def _element(self, residue: int) -> int:
        if self._element_at is None:
            return residue + 1
        return self._element_at[residue]

    # -- the two functions of paper §4 ----------------------------------------
    def get_subsets(self, element_id: int) -> list[int]:
        self._check_element_id(element_id)
        p = self._residue(element_id)
        v = self.v
        return sorted({(p - d) % v for d in self.residues})

    def pair_tiles(self, subset_id: int, members: Sequence[int] | None = None) -> tuple[Tile, ...]:
        """One pair per difference class, owned by translate ``subset_id``.

        Closed-form like broadcast/block: ``members`` is ignored (the
        reducer's arrived set is validated upstream by the exactly-once
        checker and the working-set assertions).  Row ``δ − 1`` is class δ.
        """
        self._check_subset_id(subset_id)
        v = self.v
        reps = np.array(self._reps, dtype=np.int64).reshape(-1, 2)
        if v % 2 == 0 and subset_id >= v // 2:
            reps = reps[:-1]  # the t + v/2 translate generates class v/2's pair
        ends = (subset_id + reps) % v
        if self._element_at is None:
            ends += 1
        else:
            ends = np.asarray(self._element_at, dtype=np.int64)[ends]
        return (Rows(np.column_stack((ends.max(axis=1), ends.min(axis=1)))),)

    # -- structure -------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self.v

    def subset_members(self, subset_id: int) -> list[int]:
        self._check_subset_id(subset_id)
        v = self.v
        return sorted(self._element((subset_id + d) % v) for d in self.residues)

    def task_profile(self, subset_id: int) -> TaskProfile:
        self._check_subset_id(subset_id)
        v = self.v
        half = v // 2
        evals = half
        if v % 2 == 0 and subset_id >= half:
            evals -= 1
        payload = None
        if self.element_sizes is not None:
            payload = sum(
                self.element_sizes[self._element((subset_id + d) % v) - 1]
                for d in self.residues
            )
        return TaskProfile(
            subset_id=subset_id,
            num_members=len(self.residues),
            num_evaluations=evals,
            payload_bytes=payload,
        )

    def replication_of(self, element_id: int) -> int:
        """Copies made of one element — |D| for every element."""
        self._check_element_id(element_id)
        return len(self.residues)

    def metrics(self) -> SchemeMetrics:
        v = self.v
        k = len(self.residues)
        return SchemeMetrics(
            scheme=self.name,
            v=v,
            num_tasks=v,
            communication_records=2 * v * k,
            replication_factor=float(k),
            working_set_elements=k,
            evaluations_per_task=(v - 1) / 2,
        )

    def replication_report(self) -> ReplicationReport:
        k = len(self.residues)
        max_bytes = mean_bytes = None
        if self.element_sizes is not None:
            task_bytes = [
                self.task_profile(t).payload_bytes or 0 for t in range(self.v)
            ]
            max_bytes = max(task_bytes)
            mean_bytes = statistics.fmean(task_bytes)
        return ReplicationReport(
            scheme=self.name,
            v=self.v,
            capacity_elements=k,
            replication_achieved=float(k),
            replication_lower_bound=replication_lower_bound(self.v, k),
            max_task_bytes=max_bytes,
            mean_task_bytes=mean_bytes,
        )

    def describe(self) -> str:
        skew = ", skew-aware" if self.element_sizes is not None else ""
        return (
            f"quorum(v={self.v}, |D|={len(self.residues)}, "
            f"cover={self.cover.kind}{skew}, tasks={self.num_tasks})"
        )


def measure_task_bytes(
    scheme: DistributionScheme,
    element_sizes: Sequence[int] | Mapping[int, int],
) -> tuple[int, float]:
    """``(max, mean)`` working-set bytes over a scheme's tasks.

    Works for any scheme by materializing each working set — the
    apples-to-apples skew measurement that compares the skew-aware
    quorum against design/block on the same heavy-tailed sizes.
    """
    sizes = _normalize_sizes(scheme.v, element_sizes)
    totals = [
        sum(sizes[eid - 1] for eid in members) for _, members in scheme.iter_subsets()
    ]
    return max(totals), statistics.fmean(totals)
