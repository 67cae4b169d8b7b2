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


def traced(**spans):
    """One ``--trace 1`` run's JSON object with the given per-layer values."""
    return {"metrics": {name: {"value": value, "unit": "s"} for name, value in spans.items()}}


class TestLayerTable:
    def test_one_row_per_layer_with_both_medians_and_the_change(self):
        counts = {"runtime.evaluations": 319_600, "runtime.shuffle_bytes": 12_345_678,
                  "runtime.broadcast_bytes": 35_793_712}
        parent = [traced(**{"runtime.job1_reduce_s": v, "runtime.bytes_copied": 71_592_868},
                         **counts) for v in (0.10, 0.30, 0.20)]
        change = [traced(**{"runtime.job1_reduce_s": v, "runtime.bytes_copied": 0},
                         **counts) for v in (0.05, 0.15, 0.10)]
        header, *rows = ab_pairs.layer_table(parent, change)
        assert "parent median" in header and "change median" in header
        assert [row.split()[0] for row in rows] == list(ab_pairs.LAYERS)
        assert {"runtime.evaluations", "runtime.shuffle_bytes", "runtime.broadcast_bytes",
                "runtime.bytes_copied", "runtime.tasks_dispatched",
                "runtime.spill_bytes_written"} <= set(ab_pairs.LAYERS)
        reduce_row = rows[ab_pairs.LAYERS.index("runtime.job1_reduce_s")].split()
        assert reduce_row[1:] == ["0.2", "0.1", "-50.0%"]
        for name, count in counts.items():  # counts print in full, so equal reads as equal
            row = rows[ab_pairs.LAYERS.index(name)].split()
            assert row[1:] == [str(count), str(count), "+0.0%"]
        # a count that reads 0 is a reading, not a missing phase
        copied_row = rows[ab_pairs.LAYERS.index("runtime.bytes_copied")].split()
        assert copied_row[1:] == ["71592868", "0", "-100.0%"]

    def test_a_span_no_run_has_or_that_reads_zero_prints_dashes(self):
        parent = [traced(**{"runtime.job2_map_s": 0.0, "runtime.bytes_copied": 0}), traced()]
        rows = ab_pairs.layer_table(parent, parent)[1:]
        assert rows[ab_pairs.LAYERS.index("runtime.job2_map_s")].split()[1:] == ["-", "-", "-"]
        assert rows[ab_pairs.LAYERS.index("runtime.bytes_copied")].split()[1:] == ["0", "0", "-"]
        assert rows[ab_pairs.LAYERS.index("runtime.shuffle_bytes")].split()[1:] == ["-", "-", "-"]

    def test_zero_reads_drop_out_of_one_sides_median_only(self):
        parent = [traced(**{"runtime.task_busy_s": value}) for value in (1.0, 2.0, 3.0)]
        change = [traced(**{"runtime.task_busy_s": value}) for value in (0.0, 1.0, 3.0)]
        row = ab_pairs.layer_table(parent, change)[1 + ab_pairs.LAYERS.index("runtime.task_busy_s")]
        assert row.split()[1:] == ["2", "2", "+0.0%"]
