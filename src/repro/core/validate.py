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
(:meth:`~repro.core.scheme.DistributionScheme.required_tiles`): the full
triangle for a flat scheme, the rectangle for a two-set scheme, a coarse
block for one round of a schedule.  :func:`check_exactly_once` is the only
function that walks pair coverage; every schema goes through it.

These checkers are O(v²) and intended for tests, not for
production-size datasets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .._util import mean, stdev
from .scheme import DistributionScheme, Tile, Triangle, tile_rows


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


def pair_keys(rows: np.ndarray, v: int) -> np.ndarray:
    """One int64 per ``(i, j)`` row, ``i·(v+1) + j``: one key per pair of ids ``1..v``."""
    return rows[:, 0] * (v + 1) + rows[:, 1]


def _key_pairs(keys: np.ndarray, v: int) -> tuple[tuple[int, int], ...]:
    """Invert :func:`pair_keys`."""
    return tuple(zip((keys // (v + 1)).tolist(), (keys % (v + 1)).tolist()))


def check_exactly_once(
    scheme: DistributionScheme, *, max_reported: int = 20
) -> CoverageReport:
    """Verify paper demand (b): every required pair evaluated exactly once, locally.

    Walks every working set exactly as the MR reduce phase would (members
    from :meth:`subset_members`, pairs from :meth:`pair_tiles`) and
    cross-checks against :meth:`get_subsets` — the map-side view — since
    both sides must agree for the two-job implementation to work.  Pairs
    are compared as :func:`pair_keys`: duplicates are repeated keys, and
    missing pairs the universe's keys (:meth:`required_tiles`) that no task
    evaluated.  A pair evaluated outside the declared universe fails the total.
    """
    v = scheme.v
    evaluated: list[Tile] = []
    sizes: list[int] = []
    held: list[list[int]] = []
    membership_mismatches: list[str] = []

    # Map-side view: element -> subsets.
    map_side: dict[int, set[int]] = {
        eid: set(scheme.get_subsets(eid)) for eid in scheme.participants()
    }

    for subset_id, members in scheme.iter_subsets():
        # Reduce-side membership must match the map-side emission exactly.
        for eid in members:
            if subset_id not in map_side.get(eid, ()):
                if len(membership_mismatches) < max_reported:
                    membership_mismatches.append(
                        f"element {eid} in subset {subset_id} per subset_members "
                        "but not per get_subsets"
                    )
        tiles = scheme.pair_tiles(subset_id, members)
        evaluated.extend(tiles)
        sizes.append(sum(tile.size() for tile in tiles))
        held.append(members)

    # Reverse check: every subset claimed by get_subsets must list the element.
    members_cache = [set(members) for members in held]
    for eid, subsets in map_side.items():
        for sid in subsets:
            if eid not in members_cache[sid]:
                if len(membership_mismatches) < max_reported:
                    membership_mismatches.append(
                        f"get_subsets({eid}) includes subset {sid} "
                        "but subset_members omits the element"
                    )

    rows = tile_rows(evaluated)
    task_of = np.repeat(np.arange(len(held)), sizes)
    swapped = np.flatnonzero(rows[:, 0] <= rows[:, 1])
    if len(swapped):
        i, j = rows[swapped[0]].tolist()
        raise AssertionError(
            f"scheme emitted non-canonical pair ({i}, {j}) in subset {task_of[swapped[0]]}"
        )
    # A pair is servable when its task holds both ends: one (task, id) table.
    flat = np.fromiter(chain.from_iterable(held), np.int64)
    holds = np.zeros((len(held), max(v, rows.max(initial=0), flat.max(initial=0)) + 1), bool)
    holds[np.repeat(np.arange(len(held)), [len(m) for m in held]), flat] = True
    served = holds[task_of, rows[:, 0]] & holds[task_of, rows[:, 1]]
    unservable = tuple(map(tuple, rows[~served][:max_reported].tolist()))

    universe = scheme.required_tiles()
    if universe is None:
        universe = (Triangle(range(1, v + 1)),)
    required = np.sort(pair_keys(tile_rows(universe), v))
    seen = np.sort(pair_keys(rows, v))
    missing = duplicated = ()
    if not np.array_equal(seen, required):
        missing = _key_pairs(required[~np.isin(required, seen)][:max_reported], v)
        repeated = seen[1:][seen[1:] == seen[:-1]]
        duplicated = _key_pairs(np.unique(repeated)[:max_reported], v)

    return CoverageReport(
        ok=not (missing or duplicated or unservable or membership_mismatches)
        and len(rows) == len(required),
        total_pairs_expected=len(required),
        total_pairs_seen=len(rows),
        missing=missing,
        duplicated=duplicated,
        unservable=unservable,
        membership_mismatches=tuple(membership_mismatches),
    )


def balance_report(scheme: DistributionScheme) -> BalanceReport:
    """Measure demand (a): per-task evaluations/working sets, per-element replication."""
    evals: list[int] = []
    ws: list[int] = []
    replication: Counter = Counter()
    for subset_id, members in scheme.iter_subsets():
        evals.append(sum(tile.size() for tile in scheme.pair_tiles(subset_id, members)))
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
