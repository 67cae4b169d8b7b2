"""Two-set (bipartite) pairwise computation tests (§1's generalization)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bipartite import (
    BipartiteBlockScheme,
    BipartiteBroadcastScheme,
    brute_force_bipartite,
    run_bipartite,
)
from repro.core.scheme import DistributionScheme
from repro.core.validate import check_exactly_once
from repro.mapreduce import MultiprocessEngine, SerialEngine


def cross(a, b):
    return a * 100 + b


class TestBroadcastScheme:
    def test_label_enumeration(self):
        s = BipartiteBroadcastScheme(3, 2, 2)
        # Column-major: (1,1),(2,1),(3,1),(1,2),(2,2),(3,2).
        assert [s.label_to_pair(p) for p in range(1, 7)] == [
            (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2),
        ]

    def test_label_bounds(self):
        s = BipartiteBroadcastScheme(3, 2, 2)
        with pytest.raises(ValueError):
            s.label_to_pair(0)
        with pytest.raises(ValueError):
            s.label_to_pair(7)

    def test_one_id_space_s_side_first(self):
        s = BipartiteBroadcastScheme(4, 6, 3)
        assert isinstance(s, DistributionScheme) and s.v == 10
        assert [s.eid("s", k) for k in (1, 6)] == [1, 6]
        assert [s.eid("r", k) for k in (1, 4)] == [7, 10]
        # The canonical pair (larger id first) is (r, s): comp(r, s) is evaluated.
        assert s.get_pairs(0)[:2] == [(7, 1), (8, 1)]

    def test_r_side_fully_replicated(self):
        s = BipartiteBroadcastScheme(4, 6, 3)
        for r in range(1, 5):
            assert s.get_subsets(s.eid("r", r)) == [0, 1, 2]

    def test_s_side_partially_replicated(self):
        s = BipartiteBroadcastScheme(4, 6, 3)
        for col in range(1, 7):
            tasks = s.get_subsets(s.eid("s", col))
            assert tasks  # every S element reaches at least one task
            for task in tasks:
                assert s.eid("s", col) in s.subset_members(task)

    def test_validation(self):
        with pytest.raises(ValueError):
            BipartiteBroadcastScheme(0, 5, 2)
        with pytest.raises(ValueError):
            BipartiteBroadcastScheme(5, 5, 0)
        s = BipartiteBroadcastScheme(3, 3, 2)
        with pytest.raises(ValueError):
            s.get_subsets(s.eid("x", 1))
        with pytest.raises(ValueError):
            s.get_subsets(s.eid("r", 4))
        with pytest.raises(ValueError):
            s.get_subsets(7)

    @pytest.mark.parametrize("vr,vs,p", [(3, 5, 2), (7, 2, 4), (5, 5, 30), (2, 2, 1)])
    def test_exactly_once(self, vr, vs, p):
        report = check_exactly_once(BipartiteBroadcastScheme(vr, vs, p))
        assert report.ok, report
        assert report.total_pairs_expected == vr * vs


class TestBlockScheme:
    def test_grid_tasks(self):
        s = BipartiteBlockScheme(10, 15, 2, 3)
        assert s.num_tasks == 6
        assert s.task_position(0) == (0, 0)
        assert s.task_position(5) == (1, 2)

    def test_replication_factors(self):
        s = BipartiteBlockScheme(10, 15, 2, 3)
        for r in range(1, 11):
            assert len(s.get_subsets(s.eid("r", r))) == 3  # h_s
        for col in range(1, 16):
            assert len(s.get_subsets(s.eid("s", col))) == 2  # h_r

    def test_metrics(self):
        scheme = BipartiteBlockScheme(100, 200, 5, 8)
        m = scheme.metrics()
        assert len(scheme.get_subsets(scheme.eid("r", 1))) == 8
        assert len(scheme.get_subsets(scheme.eid("s", 1))) == 5
        assert m.v == 300
        assert m.replication_factor == (100 * 8 + 200 * 5) / 300
        assert m.communication_records == 2 * (100 * 8 + 200 * 5)
        assert m.working_set_elements == 20 + 25
        assert m.evaluations_per_task == 500

    def test_effective_factors_shrink(self):
        s = BipartiteBlockScheme(5, 5, 4, 4)  # e = 2 → only 3 chunks fit
        assert s.hr == 3 and s.hs == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BipartiteBlockScheme(5, 5, 0, 2)
        with pytest.raises(ValueError):
            BipartiteBlockScheme(5, 5, 2, 6)

    @pytest.mark.parametrize(
        "vr,vs,hr,hs", [(6, 9, 2, 3), (5, 5, 5, 5), (8, 3, 4, 1), (2, 2, 1, 1)]
    )
    def test_exactly_once(self, vr, vs, hr, hs):
        report = check_exactly_once(BipartiteBlockScheme(vr, vs, hr, hs))
        assert report.ok, report
        assert report.total_pairs_expected == vr * vs

    def test_same_side_pair_fails_the_one_validator(self):
        """A rectangle task may only emit cross pairs: (s₂, s₁) is outside the universe."""

        class Leaky(BipartiteBlockScheme):
            def get_pairs(self, subset_id, members=None):
                extra = [(2, 1)] if subset_id == 0 else []
                return super().get_pairs(subset_id, members) + extra

        report = check_exactly_once(Leaky(6, 9, 2, 3))
        assert report.ok is False
        assert report.missing == () and report.duplicated == () and report.unservable == ()
        assert report.total_pairs_seen == report.total_pairs_expected + 1


class TestExecution:
    def test_matches_brute_force(self):
        r = [1, 2, 3, 4, 5]
        s = [6, 7, 8]
        ref = brute_force_bipartite(r, s, cross)
        for scheme in (
            BipartiteBroadcastScheme(5, 3, 4),
            BipartiteBlockScheme(5, 3, 2, 2),
        ):
            assert run_bipartite(r, s, cross, scheme) == ref

    def test_matches_brute_force_on_both_engines(self):
        """The asymmetric ``cross`` pins the orientation: comp(r, s), never comp(s, r)."""
        r = [1, 2, 3, 4, 5]
        s = [6, 7, 8]
        ref = brute_force_bipartite(r, s, cross)
        with MultiprocessEngine(2) as pool:
            for engine in (SerialEngine(), pool):
                for scheme in (
                    BipartiteBroadcastScheme(5, 3, 4),
                    BipartiteBlockScheme(5, 3, 2, 2),
                ):
                    assert run_bipartite(r, s, cross, scheme, engine=engine) == ref

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_bipartite([1], [2, 3], cross, BipartiteBlockScheme(2, 2, 1, 1))


@given(
    vr=st.integers(min_value=1, max_value=12),
    vs=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_property_block_exactly_once(vr, vs, data):
    hr = data.draw(st.integers(min_value=1, max_value=vr))
    hs = data.draw(st.integers(min_value=1, max_value=vs))
    report = check_exactly_once(BipartiteBlockScheme(vr, vs, hr, hs))
    assert report.ok, report


@given(
    vr=st.integers(min_value=1, max_value=12),
    vs=st.integers(min_value=1, max_value=12),
    p=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_property_broadcast_exactly_once(vr, vs, p):
    report = check_exactly_once(BipartiteBroadcastScheme(vr, vs, p))
    assert report.ok, report
