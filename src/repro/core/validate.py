"""Scheme validation: exactly-once coverage and balance statistics.

The formal demands of paper §5 are checked exhaustively here:

(a) *balance* — all working sets similar in size, all tasks similar in
    evaluation count (reported as :class:`BalanceReport` statistics), and
(b) *exactly-once* — for any two elements s_i, s_j there is exactly one
    working set D_l with (s_i, s_j) ∈ P_l, *and* both endpoints of every
    pair actually belong to that working set (a pair a task cannot
    evaluate locally would violate the no-online-communication execution
    model of §3).

"Any two elements" is the scheme's declared universe
(:meth:`~repro.core.scheme.DistributionScheme.required_pairs`): the full
triangle for a flat scheme, the rectangle for a two-set scheme, a coarse
block for one round of a schedule.  :func:`check_exactly_once` is the only
function that walks pair coverage; every schema goes through it.

These checkers are O(v²) and intended for tests, not for
production-size datasets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .._util import mean, stdev, triangle_count
from .scheme import DistributionScheme


@dataclass(frozen=True)
class CoverageReport:
    """Result of the exactly-once check."""

    ok: bool
    total_pairs_expected: int
    total_pairs_seen: int
    missing: tuple[tuple[int, int], ...]
    duplicated: tuple[tuple[int, int], ...]
    #: pairs emitted by a task that lacks one of the endpoints
    unservable: tuple[tuple[int, int], ...]
    #: working sets inconsistent between get_subsets and subset_members
    membership_mismatches: tuple[str, ...]


@dataclass(frozen=True)
class BalanceReport:
    """Distribution statistics over tasks (paper demand (a))."""

    num_tasks: int
    evals_min: int
    evals_max: int
    evals_mean: float
    evals_stdev: float
    ws_min: int
    ws_max: int
    ws_mean: float
    replication_min: int
    replication_max: int
    replication_mean: float

    @property
    def eval_imbalance(self) -> float:
        """max/mean ratio of evaluations per task (1.0 = perfectly even)."""
        return self.evals_max / self.evals_mean if self.evals_mean else 1.0


def check_exactly_once(
    scheme: DistributionScheme, *, max_reported: int = 20
) -> CoverageReport:
    """Verify paper demand (b): every required pair evaluated exactly once, locally.

    Walks every working set exactly as the MR reduce phase would (members
    from :meth:`subset_members`, pairs from :meth:`get_pairs`) and
    cross-checks against :meth:`get_subsets` — the map-side view — since
    both sides must agree for the two-job implementation to work.  A pair
    evaluated outside the declared universe fails the total.
    """
    v = scheme.v
    coverage: Counter = Counter()
    unservable: list[tuple[int, int]] = []
    membership_mismatches: list[str] = []

    # Map-side view: element -> subsets.
    map_side: dict[int, set[int]] = {
        eid: set(scheme.get_subsets(eid)) for eid in scheme.participants()
    }

    for subset_id, members in scheme.iter_subsets():
        member_set = set(members)
        # Reduce-side membership must match the map-side emission exactly.
        for eid in members:
            if subset_id not in map_side.get(eid, ()):
                if len(membership_mismatches) < max_reported:
                    membership_mismatches.append(
                        f"element {eid} in subset {subset_id} per subset_members "
                        "but not per get_subsets"
                    )
        for i, j in scheme.get_pairs(subset_id, members):
            if i <= j:
                raise AssertionError(
                    f"scheme emitted non-canonical pair ({i}, {j}) in subset {subset_id}"
                )
            if i not in member_set or j not in member_set:
                if len(unservable) < max_reported:
                    unservable.append((i, j))
            coverage[(i, j)] += 1

    # Reverse check: every subset claimed by get_subsets must list the element.
    members_cache = {sid: set(scheme.subset_members(sid)) for sid in range(scheme.num_tasks)}
    for eid, subsets in map_side.items():
        for sid in subsets:
            if eid not in members_cache[sid]:
                if len(membership_mismatches) < max_reported:
                    membership_mismatches.append(
                        f"get_subsets({eid}) includes subset {sid} "
                        "but subset_members omits the element"
                    )

    required = scheme.required_pairs()
    if required is None:
        expected = triangle_count(v)
        universe = ((i, j) for i in range(2, v + 1) for j in range(1, i))
    else:
        expected = len(required)
        universe = sorted(required)
    missing = list(islice((pair for pair in universe if pair not in coverage), max_reported))
    duplicated = [pair for pair, count in coverage.items() if count > 1][:max_reported]

    ok = (
        not missing
        and not duplicated
        and not unservable
        and not membership_mismatches
        and sum(coverage.values()) == expected
    )
    return CoverageReport(
        ok=ok,
        total_pairs_expected=expected,
        total_pairs_seen=sum(coverage.values()),
        missing=tuple(missing),
        duplicated=tuple(duplicated),
        unservable=tuple(unservable),
        membership_mismatches=tuple(membership_mismatches),
    )


def balance_report(scheme: DistributionScheme) -> BalanceReport:
    """Measure demand (a): per-task evaluations/working sets, per-element replication."""
    evals: list[int] = []
    ws: list[int] = []
    replication: Counter = Counter()
    for subset_id, members in scheme.iter_subsets():
        evals.append(len(scheme.get_pairs(subset_id, members)))
        ws.append(len(members))
        for eid in members:
            replication[eid] += 1
    rep_values = [replication.get(eid, 0) for eid in range(1, scheme.v + 1)]
    return BalanceReport(
        num_tasks=scheme.num_tasks,
        evals_min=min(evals),
        evals_max=max(evals),
        evals_mean=mean(evals),
        evals_stdev=stdev(evals),
        ws_min=min(ws),
        ws_max=max(ws),
        ws_mean=mean(ws),
        replication_min=min(rep_values),
        replication_max=max(rep_values),
        replication_mean=mean(rep_values),
    )


def assert_valid_scheme(scheme: DistributionScheme) -> None:
    """Raise AssertionError with diagnostics unless the scheme is valid."""
    report = check_exactly_once(scheme)
    if not report.ok:
        raise AssertionError(
            f"{scheme.describe()} violates exactly-once coverage: "
            f"expected {report.total_pairs_expected} pairs, saw "
            f"{report.total_pairs_seen}; missing={report.missing[:5]} "
            f"duplicated={report.duplicated[:5]} "
            f"unservable={report.unservable[:5]} "
            f"mismatches={report.membership_mismatches[:3]}"
        )
