"""Design scheme tests (§5.3)."""

import math

import pytest

from repro.core.design import DesignScheme
from repro.core.runner import auto_pairwise
from repro.core.validate import assert_valid_scheme, balance_report

from ..conftest import abs_diff


class TestConstruction:
    def test_paper_q_for_10000(self):
        """§5.3: v = 10,000 → q = 101, first 102 working sets dominated by
        the remaining 10,201."""
        s = DesignScheme(10_000)
        assert s.q == 101
        assert s.plane_points == 10_303

    def test_exact_plane_no_truncation(self):
        s = DesignScheme(57)  # 7²+7+1
        assert s.q == 7
        assert s.num_tasks == 57
        assert all(len(block) == 8 for block in s.blocks)

    def test_truncated_blocks_smaller(self):
        s = DesignScheme(40)  # inside the order-7 plane
        assert s.q == 7
        assert all(2 <= len(block) <= 8 for block in s.blocks)
        assert all(max(block) <= 40 for block in s.blocks)

    def test_prime_power_option(self):
        s = DesignScheme(21, allow_prime_powers=True)
        assert s.q == 4
        assert DesignScheme(21).q == 5

    @pytest.mark.parametrize("num_nodes", [0, -3])
    def test_num_nodes_must_be_positive(self, num_nodes):
        # A cluster of no nodes would cap the communication metric at 2vn <= 0.
        with pytest.raises(ValueError, match="num_nodes"):
            DesignScheme(30, num_nodes=num_nodes)
        with pytest.raises(ValueError, match="num_nodes"):
            DesignScheme.approx_metrics(30, num_nodes=num_nodes)
        with pytest.raises(ValueError, match="num_nodes"):  # a forced scheme skips the chooser
            auto_pairwise(list(range(30)), abs_diff, scheme="design", num_nodes=num_nodes)


class TestSubsets:
    def test_full_plane_replication_q_plus_1(self):
        s = DesignScheme(57)
        for eid in range(1, 58):
            assert s.replication_of(eid) == 8

    def test_subsets_consistent_with_blocks(self):
        s = DesignScheme(30)
        for eid in range(1, 31):
            for task in s.get_subsets(eid):
                assert eid in s.blocks[task]

    def test_every_element_covered(self):
        s = DesignScheme(23)
        for eid in range(1, 24):
            assert s.get_subsets(eid), f"element {eid} in no working set"


class TestPairs:
    def test_pairs_are_full_relation(self):
        s = DesignScheme(13)
        for task in range(s.num_tasks):
            block = s.blocks[task]
            pairs = s.get_pairs(task, block)
            assert len(pairs) == len(block) * (len(block) - 1) // 2

    def test_mismatched_members_raise(self):
        s = DesignScheme(13)
        with pytest.raises(ValueError):
            s.get_pairs(0, [1, 2, 999])

    def test_members_none_uses_block(self):
        s = DesignScheme(13)
        assert s.get_pairs(0) == s.get_pairs(0, s.blocks[0])


class TestValidity:
    @pytest.mark.parametrize("v", [2, 3, 7, 13, 21, 31, 40, 57, 73, 91])
    def test_exactly_once(self, v):
        assert_valid_scheme(DesignScheme(v))

    @pytest.mark.parametrize("v", [21, 64, 73])
    def test_exactly_once_prime_powers(self, v):
        assert_valid_scheme(DesignScheme(v, allow_prime_powers=True))


class TestMetrics:
    def test_working_set_about_sqrt_v(self):
        """Table 1's ≈√v working set: exactly q+1 on a full plane."""
        s = DesignScheme(57)
        m = s.metrics()
        assert m.working_set_elements == 8
        assert abs(m.working_set_elements - math.sqrt(57)) < 1

    def test_replication_about_sqrt_v(self):
        s = DesignScheme(10_000)
        m = s.metrics()
        assert abs(m.replication_factor - 100) < 3  # ≈ √10000, exact 102-ish

    def test_comm_capped_at_2vn(self):
        with_cap = DesignScheme(57, num_nodes=2).metrics()
        without = DesignScheme(57).metrics()
        assert with_cap.communication_records == 2 * 57 * 2
        assert without.communication_records > with_cap.communication_records

    def test_approx_matches_exact_on_large_plane(self):
        exact = DesignScheme(10_000).metrics()
        approx = DesignScheme.approx_metrics(10_000)
        assert abs(exact.replication_factor - approx.replication_factor) < 3
        assert abs(exact.working_set_elements - approx.working_set_elements) < 3
        assert (
            abs(exact.evaluations_per_task - approx.evaluations_per_task)
            / approx.evaluations_per_task
            < 0.05
        )

    def test_balance(self):
        report = balance_report(DesignScheme(31))
        assert report.ws_min == report.ws_max == 6  # full plane: uniform blocks
        assert report.evals_min == report.evals_max == 15

    def test_task_profile_matches_enumeration(self):
        s = DesignScheme(40)
        for t in range(s.num_tasks):
            profile = s.task_profile(t)
            assert profile.num_members == len(s.blocks[t])
            assert profile.num_evaluations == len(s.get_pairs(t))

    def test_describe(self):
        text = DesignScheme(23).describe()
        assert "q=5" in text and "v=23" in text
