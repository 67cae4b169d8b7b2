"""Property-based validation: exactly-once coverage under random parameters.

These are the paper's formal demands (§5) tested as universal properties:
for *any* admissible (v, parameters), every scheme must cover each pair
of its declared universe exactly once, keep all pairs locally servable, and
agree between its map-side (get_subsets) and reduce-side (subset_members)
views.  One validator, ``check_exactly_once``, holds every scheme class to it:
a schedule is valid iff each round passes and the rounds' universes tile the
triangle (``check_schedule_exactly_once`` is that loop).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bipartite import BipartiteBlockScheme, BipartiteBroadcastScheme
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.hierarchical import (
    HierarchicalBlockScheme,
    Round,
    ScheduledTask,
    SequentialDesignSchedule,
    check_schedule_exactly_once,
)
from repro.core.scheme import Rows, tile_rows
from repro.core.validate import balance_report, check_exactly_once

# Keep v modest: the checker is O(v²) and hypothesis runs many examples.
SMALL_V = st.integers(min_value=2, max_value=40)


@given(v=SMALL_V, n=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_broadcast_exactly_once(v, n):
    report = check_exactly_once(BroadcastScheme(v, n))
    assert report.ok, report


@given(v=SMALL_V, data=st.data())
@settings(max_examples=40, deadline=None)
def test_block_exactly_once(v, data):
    h = data.draw(st.integers(min_value=1, max_value=v))
    report = check_exactly_once(BlockScheme(v, h))
    assert report.ok, report


@given(v=SMALL_V, data=st.data())
@settings(max_examples=30, deadline=None)
def test_block_paired_diagonals_exactly_once(v, data):
    h = data.draw(st.integers(min_value=1, max_value=v))
    report = check_exactly_once(BlockScheme(v, h, pair_diagonals=True))
    assert report.ok, report


@given(v=SMALL_V, prime_powers=st.booleans())
@settings(max_examples=30, deadline=None)
def test_design_exactly_once(v, prime_powers):
    report = check_exactly_once(DesignScheme(v, allow_prime_powers=prime_powers))
    assert report.ok, report


def assert_rounds_tile_the_triangle(schedule):
    """Every round through the one validator; universes disjoint, v(v−1)/2 in all."""
    declared = []
    for round_ in schedule.rounds():
        report = check_exactly_once(round_)
        assert report.ok, report
        universe = round_.required_tiles()
        assert report.total_pairs_expected == sum(t.size() for t in universe) == round_.evaluations
        declared.extend(map(tuple, tile_rows(universe).tolist()))
    assert len(set(declared)) == len(declared) == schedule.v * (schedule.v - 1) // 2
    ok, msg = check_schedule_exactly_once(schedule)
    assert ok, msg


@given(v=SMALL_V, data=st.data())
@settings(max_examples=30, deadline=None)
def test_hierarchical_block_exactly_once(v, data):
    coarse = data.draw(st.integers(min_value=1, max_value=v))
    fine = data.draw(st.integers(min_value=1, max_value=8))
    assert_rounds_tile_the_triangle(HierarchicalBlockScheme(v, coarse, fine))


@given(v=SMALL_V, rounds=st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_sequential_design_exactly_once(v, rounds):
    assert_rounds_tile_the_triangle(SequentialDesignSchedule(DesignScheme(v), rounds))


@given(v=st.integers(min_value=4, max_value=40), data=st.data())
@settings(max_examples=20, deadline=None)
def test_round_that_drops_a_required_pair_is_caught(v, data):
    """Negative: the universe is declared apart from the tiling, so a hole shows."""
    coarse = data.draw(st.integers(min_value=1, max_value=v // 2))
    schedule = HierarchicalBlockScheme(v, coarse, data.draw(st.integers(1, 4)))
    whole = data.draw(st.sampled_from([r for r in schedule.rounds() if r.evaluations]))
    victim = data.draw(st.sampled_from([t for t in whole.tasks if t.evaluations]))
    rows = tile_rows(victim.tiles)
    cut = data.draw(st.integers(0, len(rows) - 1))
    hole = tuple(rows[cut].tolist())
    tasks = [
        t if t is not victim else
        ScheduledTask(t.round_index, t.task_index, t.members, (Rows(np.delete(rows, cut, 0)),))
        for t in whole.tasks
    ]
    report = check_exactly_once(Round(v, whole.index, tasks, whole.universe))
    assert report.ok is False and report.missing == (hole,)


BIPARTITE_SIDE = st.integers(min_value=1, max_value=12)


@given(vr=BIPARTITE_SIDE, vs=BIPARTITE_SIDE, data=st.data())
@settings(max_examples=30, deadline=None)
def test_bipartite_schemes_cover_the_rectangle_exactly_once(vr, vs, data):
    block = BipartiteBlockScheme(
        vr, vs, data.draw(st.integers(1, vr)), data.draw(st.integers(1, vs))
    )
    broadcast = BipartiteBroadcastScheme(vr, vs, data.draw(st.integers(1, 20)))
    for scheme in (block, broadcast):
        report = check_exactly_once(scheme)
        assert report.ok, report
        assert report.total_pairs_expected == vr * vs
        balance = balance_report(scheme)
        assert balance.replication_min >= 1  # both sides take part
        assert sum(scheme.task_profile(t).num_evaluations for t in range(scheme.num_tasks)) == vr * vs


@given(v=st.integers(min_value=4, max_value=40), data=st.data())
@settings(max_examples=25, deadline=None)
def test_block_replication_is_h(v, data):
    """Table-1 invariant: every element is replicated exactly h times."""
    h = data.draw(st.integers(min_value=1, max_value=v))
    scheme = BlockScheme(v, h)
    report = balance_report(scheme)
    assert report.replication_min == report.replication_max == scheme.h


@given(v=SMALL_V, n=st.integers(min_value=1, max_value=15))
@settings(max_examples=25, deadline=None)
def test_broadcast_total_evaluations(v, n):
    """The chunks always sum to exactly v(v−1)/2 evaluations."""
    scheme = BroadcastScheme(v, n)
    total = sum(
        scheme.task_profile(t).num_evaluations for t in range(scheme.num_tasks)
    )
    assert total == v * (v - 1) // 2


@given(v=SMALL_V)
@settings(max_examples=25, deadline=None)
def test_design_evaluations_sum(v):
    """Design blocks' internal pairs also sum to the full triangle."""
    scheme = DesignScheme(v)
    total = sum(
        scheme.task_profile(t).num_evaluations for t in range(scheme.num_tasks)
    )
    assert total == v * (v - 1) // 2
