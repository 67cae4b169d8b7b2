"""Block scheme tests (§5.2): grid math, working sets, diagonal pairing."""

import pytest

from repro.core.block import BlockScheme
from repro.core.scheme import Cross, Triangle
from repro.core.validate import assert_valid_scheme, balance_report


class TestConstruction:
    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            BlockScheme(10, 0)
        with pytest.raises(ValueError):
            BlockScheme(10, 11)

    def test_paper_example_geometry(self):
        """Fig. 6: v=15, h=3 → e=5, 6 blocks."""
        s = BlockScheme(15, 3)
        assert s.e == 5
        assert s.num_tasks == 6

    def test_effective_h_shrinks(self):
        # v=10, h=6 → e=2 → only 5 groups exist.
        s = BlockScheme(10, 6)
        assert s.e == 2
        assert s.h == 5
        assert s.h_requested == 6
        assert s.num_tasks == 15


class TestGridMath:
    def test_block_position_figure6(self):
        """Fig. 6's enumeration: p=1→(1,1), 2→(2,1)... in (I,J) with I≥J.

        The paper labels positions (I=column-block, J=row-block); its p=2
        block has columns 6–10 (I=2) and rows 1–5 (J=1)."""
        s = BlockScheme(15, 3)
        assert s.block_position(1) == (1, 1)
        assert s.block_position(2) == (2, 1)
        assert s.block_position(3) == (2, 2)
        assert s.block_position(4) == (3, 1)
        assert s.block_position(5) == (3, 2)
        assert s.block_position(6) == (3, 3)

    def test_block_id_roundtrip(self):
        s = BlockScheme(100, 9)
        for p in range(1, s.num_tasks + 1):
            I, J = s.block_position(p)
            assert s.block_id(I, J) == p

    def test_block_id_rejects_bad_position(self):
        s = BlockScheme(20, 4)
        with pytest.raises(ValueError):
            s.block_id(2, 3)  # J > I
        with pytest.raises(ValueError):
            s.block_id(5, 1)  # I > h

    def test_paper_block2_members(self):
        """§5.2: block p=2 has rows 1..5 and columns 6..10 (v=15, e=5)."""
        s = BlockScheme(15, 3)
        assert s.block_members(2) == list(range(1, 6)) + list(range(6, 11))

    def test_group_of(self):
        s = BlockScheme(15, 3)
        assert s.group_of(1) == 1
        assert s.group_of(5) == 1
        assert s.group_of(6) == 2
        assert s.group_of(15) == 3

    def test_last_group_may_be_short(self):
        s = BlockScheme(13, 3)  # e = 5 → groups 5,5,3
        assert s.group_members(3) == [11, 12, 13]


class TestReplication:
    def test_each_element_in_h_blocks(self):
        """Table 1: replication factor = h."""
        s = BlockScheme(23, 4)
        for eid in range(1, 24):
            assert len(s.blocks_of_element(eid)) == s.h

    def test_blocks_of_element_consistent_with_members(self):
        s = BlockScheme(17, 4)
        for eid in range(1, 18):
            for block in s.blocks_of_element(eid):
                assert eid in s.block_members(block)


class TestPairs:
    def test_diagonal_block_is_half_triangle(self):
        s = BlockScheme(15, 3)
        tile = s.block_tile(1)  # block (1,1) over elements 1..5
        assert isinstance(tile, Triangle)
        pairs = tile.rows()
        assert len(pairs) == 10  # 5·4/2
        assert all(1 <= j < i <= 5 for i, j in pairs)

    def test_cross_block_is_full_rectangle(self):
        s = BlockScheme(15, 3)
        tile = s.block_tile(2)  # rows 1..5 × cols 6..10
        assert isinstance(tile, Cross)
        pairs = tile.rows()
        assert len(pairs) == 25
        assert all(6 <= i <= 10 and 1 <= j <= 5 for i, j in pairs)


class TestValidity:
    @pytest.mark.parametrize(
        "v,h",
        [(2, 1), (2, 2), (10, 1), (10, 3), (23, 4), (23, 23), (40, 7), (15, 3)],
    )
    def test_exactly_once(self, v, h):
        assert_valid_scheme(BlockScheme(v, h))

    @pytest.mark.parametrize("v,h", [(23, 4), (40, 7), (31, 5), (16, 4)])
    def test_exactly_once_paired(self, v, h):
        assert_valid_scheme(BlockScheme(v, h, pair_diagonals=True))


class TestMetrics:
    def test_table1_row(self):
        m = BlockScheme(100, 5).metrics()
        assert m.num_tasks == 15
        assert m.communication_records == 2 * 100 * 5
        assert m.replication_factor == 5
        assert m.working_set_elements == 40  # 2·⌈100/5⌉
        assert m.evaluations_per_task == 400  # ⌈v/h⌉²

    def test_balance_measured_replication(self):
        report = balance_report(BlockScheme(60, 5))
        assert report.replication_min == report.replication_max == 5

    def test_task_profile_matches_enumeration(self):
        for scheme in (BlockScheme(23, 4), BlockScheme(23, 4, pair_diagonals=True)):
            for t in range(scheme.num_tasks):
                profile = scheme.task_profile(t)
                members = scheme.subset_members(t)
                assert profile.num_members == len(members)
                assert profile.num_evaluations == len(scheme.get_pairs(t, members))


class TestPairedDiagonals:
    def test_task_count(self):
        """h(h−1)/2 off-diagonal + ⌈h/2⌉ fused diagonal tasks."""
        s = BlockScheme(40, 4, pair_diagonals=True)
        assert s.num_tasks == 6 + 2
        s5 = BlockScheme(40, 5, pair_diagonals=True)
        assert s5.num_tasks == 10 + 3  # odd h leaves one solo diagonal

    def test_evens_out_task_work(self):
        """Fusing diagonals narrows the evals/task spread (the §5.2 point)."""
        plain = balance_report(BlockScheme(60, 6))
        paired = balance_report(BlockScheme(60, 6, pair_diagonals=True))
        assert paired.eval_imbalance <= plain.eval_imbalance

    def test_get_subsets_points_at_fused_tasks(self):
        s = BlockScheme(20, 4, pair_diagonals=True)
        for eid in range(1, 21):
            for task in s.get_subsets(eid):
                assert eid in s.subset_members(task)
