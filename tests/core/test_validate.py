"""Tests for the validator itself: it must catch broken schemes."""

from typing import Sequence

import pytest

from repro.core.block import BlockScheme
from repro.core.scheme import DistributionScheme, Pair, Rows, SchemeMetrics
from repro.core.validate import assert_valid_scheme, balance_report, check_exactly_once
from repro.kernels import pair_index_array


class _BrokenScheme(DistributionScheme):
    """Configurable bad scheme: one working set of everything, with knobs."""

    name = "broken"

    def __init__(self, v: int, mode: str):
        super().__init__(v)
        self.mode = mode

    @property
    def num_tasks(self) -> int:
        return 2

    def get_subsets(self, element_id: int) -> list[int]:
        if self.mode == "membership-mismatch" and element_id == 1:
            return [1]  # claims subset 1, but subset_members puts it in 0
        return [0, 1]

    def subset_members(self, subset_id: int) -> list[int]:
        if self.mode == "membership-mismatch":
            return list(range(1, self.v + 1)) if subset_id == 0 else list(
                range(2, self.v + 1)
            )
        return list(range(1, self.v + 1))

    def pair_tiles(self, subset_id: int, members: Sequence[int] | None = None) -> tuple[Rows]:
        return (Rows(pair_index_array(self.pair_list(subset_id))),)

    def pair_list(self, subset_id: int) -> list[Pair]:
        full = [(i, j) for i in range(2, self.v + 1) for j in range(1, i)]
        if self.mode == "duplicate":
            return full  # both subsets evaluate everything → every pair twice
        if self.mode == "missing":
            return full[:-1] if subset_id == 0 else []
        if self.mode == "unservable":
            # Pair references an id outside [1, v] members list.
            return ([(self.v + 1, 1)] if subset_id == 0 else []) + (
                full if subset_id == 1 else []
            )
        if self.mode == "membership-mismatch":
            return full if subset_id == 0 else []
        return full if subset_id == 0 else []  # "valid": subset 0 does all

    def metrics(self) -> SchemeMetrics:  # pragma: no cover - not used
        raise NotImplementedError


class TestCatchesViolations:
    def test_duplicates_detected(self):
        report = check_exactly_once(_BrokenScheme(6, "duplicate"))
        assert not report.ok
        assert report.duplicated == ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1),
                                     (5, 2), (5, 3), (5, 4), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5))
        assert report.total_pairs_seen == 2 * report.total_pairs_expected == 30

    def test_missing_detected(self):
        report = check_exactly_once(_BrokenScheme(6, "missing"))
        assert not report.ok
        assert report.missing == ((6, 5),) and report.duplicated == ()

    def test_unservable_detected(self):
        report = check_exactly_once(_BrokenScheme(6, "unservable"))
        assert not report.ok
        assert report.unservable == ((7, 1),)
        assert report.missing == () and report.duplicated == ()

    def test_membership_mismatch_detected(self):
        report = check_exactly_once(_BrokenScheme(6, "membership-mismatch"))
        assert not report.ok
        assert report.membership_mismatches == (
            "element 1 in subset 0 per subset_members but not per get_subsets",
            "get_subsets(1) includes subset 1 but subset_members omits the element",
        )
        assert report.missing == report.duplicated == report.unservable == ()

    def test_valid_trivial_scheme_passes(self):
        report = check_exactly_once(_BrokenScheme(6, "valid"))
        assert report.ok

    def test_assert_valid_raises_with_diagnostics(self):
        with pytest.raises(AssertionError, match="exactly-once"):
            assert_valid_scheme(_BrokenScheme(6, "duplicate"))


class TestNonCanonicalPairs:
    def test_swapped_pair_raises_immediately(self):
        class Swapped(_BrokenScheme):
            def pair_list(self, subset_id):
                return [(1, 2)] if subset_id == 0 else []

        with pytest.raises(AssertionError, match="non-canonical"):
            check_exactly_once(Swapped(4, "valid"))


class TestBalanceReport:
    def test_fields_consistent(self):
        report = balance_report(BlockScheme(30, 3))
        assert report.num_tasks == 6
        assert report.evals_min <= report.evals_mean <= report.evals_max
        assert report.ws_min <= report.ws_mean <= report.ws_max
        assert report.eval_imbalance >= 1.0

    def test_report_caps_output(self):
        report = check_exactly_once(_BrokenScheme(20, "duplicate"), max_reported=5)
        assert len(report.duplicated) <= 5
