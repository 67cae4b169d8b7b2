"""The acceptance arithmetic of ``tools/ab_pairs.py``, on hand-made samples.

No subprocess runs: the helpers are pure functions of per-side samples.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

#: ten parent samples: median 1.0, q1 0.98, q3 1.02 (IQR 0.04)
PARENT = [0.97, 0.98, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.02, 1.03]
LOWER = 1  # sign of a lower-is-better metric
HIGHER = -1


def wins(parent, change, sign):
    return sum(sign * c < sign * p for p, c in zip(parent, change))


class TestClaimHolds:
    def test_ten_wins_and_a_gap_wider_than_the_parents_spread(self):
        change = [value - 0.1 for value in PARENT]
        assert ab_pairs.claim_holds(PARENT, change, wins(PARENT, change, LOWER), LOWER)

    def test_nine_wins_suffice(self):
        change = [value - 0.1 for value in PARENT]
        change[0] = PARENT[0] + 0.5
        assert wins(PARENT, change, LOWER) == 9
        assert ab_pairs.claim_holds(PARENT, change, 9, LOWER)

    def test_eight_wins_do_not(self):
        change = [value - 0.1 for value in PARENT]
        change[0] = change[1] = 2.0
        assert not ab_pairs.claim_holds(PARENT, change, wins(PARENT, change, LOWER), LOWER)

    def test_a_gap_inside_the_parents_spread_does_not(self):
        change = [value - 0.01 for value in PARENT]  # wins 10/10 by less than q3 - q1
        assert wins(PARENT, change, LOWER) == 10
        assert not ab_pairs.claim_holds(PARENT, change, 10, LOWER)

    def test_higher_is_better_flips_the_sign(self):
        change = [value + 0.1 for value in PARENT]
        assert ab_pairs.claim_holds(PARENT, change, wins(PARENT, change, HIGHER), HIGHER)
        assert not ab_pairs.claim_holds(PARENT, change, wins(PARENT, change, LOWER), LOWER)

    def test_fewer_than_four_pairs_never_hold(self):
        assert not ab_pairs.claim_holds([1.0, 1.0, 1.0], [0.1, 0.1, 0.1], 3, LOWER)


class TestBoundVerdict:
    def test_within_the_bound_is_ok(self):
        change = [value * 1.2 for value in PARENT]
        assert ab_pairs.bound_verdict(PARENT, change, LOWER, 0.25) == "ok"

    def test_past_the_bound_is_worse(self):
        change = [value * 1.3 for value in PARENT]
        assert ab_pairs.bound_verdict(PARENT, change, LOWER, 0.25) == "worse"
        assert ab_pairs.bound_verdict(PARENT, change, HIGHER, 0.25) == "ok"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [0.5, 0.6, 0.8, 0.9, 1.0, 1.0, 1.1, 1.3, 1.4, 1.5]
        assert ab_pairs.bound_verdict(parent, parent, LOWER, 0.1) == "unresolved"

    def test_beating_every_parent_run_resolves_a_wide_spread(self):
        parent = [0.5, 0.6, 0.8, 0.9, 1.0, 1.0, 1.1, 1.3, 1.4, 1.5]
        assert ab_pairs.bound_verdict(parent, [0.4] * 10, LOWER, 0.1) == "ok"


class TestFailedShare:
    def test_share_is_failed_over_attempted_across_runs(self):
        runs = [{"failed": 1, "attempted": 10}, {"failed": 0, "attempted": 30}]
        assert ab_pairs.failed_share(runs) == pytest.approx(1 / 40)

    def test_equal_counts_over_fewer_attempts_are_a_higher_share(self):
        """A slower change attempts fewer operations in the same run time."""
        parent = [{"failed": 2, "attempted": 100}]
        change = [{"failed": 2, "attempted": 50}]
        assert ab_pairs.failed_share(change) > ab_pairs.failed_share(parent)

    def test_more_failures_over_more_attempts_can_be_a_lower_share(self):
        parent = [{"failed": 2, "attempted": 50}]
        change = [{"failed": 3, "attempted": 100}]
        assert ab_pairs.failed_share(change) < ab_pairs.failed_share(parent)

    def test_nothing_attempted_is_no_failure(self):
        assert ab_pairs.failed_share([{"failed": 0, "attempted": 0}]) == 0.0
