"""Placement tests: the one ``place`` function over cluster slots."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import ClusterSpec, NodeSpec
from repro.cluster.scheduler import Slot, TaskCost, cluster_slots, place
from repro.mapreduce.controlplane.policy import dispatch_order


def cluster(nodes=2, slots=2):
    return ClusterSpec.homogeneous(nodes, NodeSpec(slots=slots))


def schedule(tasks, spec):
    return place(tasks, cluster_slots(spec))


#: 12 tasks with costs 1..5, and where the parent commit's ``schedule_lpt``
#: put them on 3 nodes × 2 slots (recorded before ``place`` replaced it)
TASKS = [TaskCost(i, float((i * 7) % 5 + 1)) for i in range(12)]
PARENT_LPT_PLACEMENT = {
    2: (0, 0), 7: (0, 1), 4: (1, 0), 9: (1, 1), 1: (2, 0), 6: (2, 1),
    11: (2, 0), 3: (2, 1), 8: (1, 0), 0: (1, 1), 5: (0, 0), 10: (0, 1),
}
PARENT_LPT_LOADS = {
    (0, 0): 6.0, (0, 1): 6.0, (1, 0): 6.0, (1, 1): 5.0, (2, 0): 6.0, (2, 1): 5.0,
}
#: the same tasks on 2 nodes × 2 slots, the second node 3× faster
#: (the parent's ``schedule_lpt_heterogeneous``)
PARENT_MIXED_PLACEMENT = {
    2: (1, 0), 7: (1, 1), 4: (1, 0), 9: (1, 1), 1: (0, 0), 6: (0, 1),
    11: (1, 0), 3: (1, 1), 8: (1, 1), 0: (0, 0), 5: (0, 1), 10: (1, 0),
}
PARENT_MIXED_LOADS = {(0, 0): 4.0, (0, 1): 4.0, (1, 0): 13 / 3, (1, 1): 13 / 3}


class TestTaskCost:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TaskCost(1, -0.5)


class TestLPT:
    def test_all_tasks_placed(self):
        tasks = [TaskCost(i, float(i + 1)) for i in range(10)]
        assignment = schedule(tasks, cluster())
        assert set(assignment.placement) == set(range(10))

    def test_makespan_bounded_by_lpt_guarantee(self):
        """LPT ≤ 4/3·OPT; OPT ≥ max(total/slots, longest task)."""
        tasks = [TaskCost(i, float((i * 37) % 19 + 1)) for i in range(40)]
        assignment = schedule(tasks, cluster(4, 2))
        total = sum(t.seconds for t in tasks)
        opt_lb = max(total / 8, max(t.seconds for t in tasks))
        assert assignment.makespan <= 4 / 3 * opt_lb + 1e-9

    def test_equal_tasks_perfectly_balanced(self):
        tasks = [TaskCost(i, 1.0) for i in range(8)]
        assignment = schedule(tasks, cluster(2, 2))
        assert assignment.makespan == pytest.approx(2.0)
        assert assignment.imbalance == pytest.approx(1.0)

    def test_single_huge_task_dominates(self):
        tasks = [TaskCost(0, 100.0)] + [TaskCost(i, 1.0) for i in range(1, 5)]
        assignment = schedule(tasks, cluster(2, 1))
        assert assignment.makespan == pytest.approx(100.0)

    def test_deterministic(self):
        tasks = [TaskCost(i, float((i * 7) % 5 + 1)) for i in range(20)]
        a = schedule(tasks, cluster())
        b = schedule(tasks, cluster())
        assert a.placement == b.placement

    def test_empty_tasks(self):
        assignment = schedule([], cluster())
        assert assignment.makespan == 0.0

    def test_node_loads(self):
        tasks = [TaskCost(i, 1.0) for i in range(4)]
        assignment = schedule(tasks, cluster(2, 2))
        loads = assignment.node_loads()
        assert set(loads) == {0, 1}

    def test_equal_speeds_reproduce_the_parents_lpt(self):
        assignment = schedule(TASKS, cluster(3, 2))
        assert assignment.placement == PARENT_LPT_PLACEMENT
        assert assignment.slot_loads == PARENT_LPT_LOADS

    def test_tasks_are_placed_costliest_first_ties_by_id(self):
        order = dispatch_order(TASKS)
        seconds = {task.task_id: task.seconds for task in TASKS}
        assert [(-seconds[i], i) for i in order] == sorted((-seconds[i], i) for i in order)
        # ``placement`` keeps that order: it is the per-slot running order.
        assert list(schedule(TASKS, cluster(3, 2)).placement) == order

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            place([TaskCost(1, 1.0), TaskCost(1, 2.0)], [Slot(0, 0)])

    def test_needs_slots(self):
        with pytest.raises(ValueError, match="zero slots"):
            place(TASKS, [])


class TestHeterogeneousLPT:
    def _mixed_cluster(self):
        return ClusterSpec(
            nodes=[
                NodeSpec(eval_rate=10_000, slots=1),  # reference speed
                NodeSpec(eval_rate=40_000, slots=1),  # 4× faster
            ]
        )

    def test_slots_carry_their_nodes_relative_speed(self):
        assert [slot.speed for slot in cluster_slots(self._mixed_cluster())] == [1.0, 4.0]
        assert {slot.speed for slot in cluster_slots(cluster(3, 2))} == {1.0}

    def test_fast_node_gets_more_work(self):
        tasks = [TaskCost(i, 1.0) for i in range(10)]
        assignment = schedule(tasks, self._mixed_cluster())
        counts = Counter(node for node, _slot in assignment.placement.values())
        assert counts[1] > counts[0]  # the 4× node takes the majority

    def test_mixed_speeds_reproduce_the_parents_placement(self):
        mixed = ClusterSpec(nodes=[NodeSpec(slots=2, eval_rate=r) for r in (100.0, 300.0)])
        assignment = schedule(TASKS, mixed)
        assert assignment.placement == PARENT_MIXED_PLACEMENT
        assert assignment.slot_loads == pytest.approx(PARENT_MIXED_LOADS)

    def test_homogeneous_matches_plain_lpt_makespan(self):
        """Equal nodes are speed-1.0 slots whatever their common rate."""
        tasks = [TaskCost(i, float((i * 3) % 7 + 1)) for i in range(20)]
        fast_but_equal = ClusterSpec.homogeneous(3, NodeSpec(slots=2, eval_rate=25_000))
        plain = place(tasks, [Slot(node, slot) for node in range(3) for slot in range(2)])
        assert schedule(tasks, fast_but_equal).slot_loads == plain.slot_loads

    def test_beats_speed_blind_lpt_on_mixed_cluster(self):
        tasks = [TaskCost(i, 2.0) for i in range(12)]
        mixed = self._mixed_cluster()
        # Speed-blind: the same two slots, both claiming reference speed,
        # so loads count reference-seconds and the tasks split 6 / 6.
        blind = place(tasks, [Slot(node, 0) for node in (0, 1)])
        aware = schedule(tasks, mixed)
        # Node 0 holds 6 tasks × 2 s = 12 s of wall clock under the blind
        # split; the aware one puts ~2.4 s on node 0 and the rest on the
        # 4× node, and its loads are wall seconds.
        assert blind.slot_loads[(0, 0)] == 12.0
        assert aware.makespan < 12.0

    def test_deterministic(self):
        tasks = [TaskCost(i, float(i % 4 + 1)) for i in range(15)]
        a = schedule(tasks, self._mixed_cluster())
        b = schedule(tasks, self._mixed_cluster())
        assert a.placement == b.placement


def scan_place(costs, slots):
    """``place`` as the commit before the per-speed heaps wrote it: a ``min`` over every slot."""
    seconds = {task.task_id: task.seconds for task in costs}
    loads = {slot.key: 0.0 for slot in slots}
    placement = {}
    for task_id in dispatch_order(costs):
        finish, best = min(
            (loads[slot.key] + seconds[task_id] / slot.speed, slot.key) for slot in slots
        )
        placement[task_id] = best
        loads[best] = finish
    return placement, loads


#: costs that make equal loads, and loads that differ yet round to the same finish
COSTS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.75, 1 - 2**-53, 1.0, 1e16])
SPEEDS = st.sampled_from([1.0, 0.5, 2.0, 1 / 3, 0.7])


class TestHeapsAreTheScan:
    @given(
        costs=st.lists(COSTS, max_size=30),
        speeds=st.lists(SPEEDS, min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_placements_and_loads_equal_the_min_scan(self, costs, speeds, data):
        keys = data.draw(st.permutations([(node, slot) for node in range(5) for slot in range(2)]))
        slots = [Slot(node, index, speed) for (node, index), speed in zip(keys, speeds)]
        tasks = [TaskCost(task_id, cost) for task_id, cost in enumerate(costs)]
        got = place(tasks, slots)
        placement, loads = scan_place(tasks, slots)
        assert got.placement == placement
        assert list(got.slot_loads.items()) == list(loads.items())

    def test_a_rounding_tie_goes_to_the_lower_key(self):
        """Loads 1 − 2⁻⁵³ < 1 both finish a 0.75-second task at 1.75: slot (0, 0) wins."""
        slots = [Slot(0, 0), Slot(0, 1)]
        tasks = [TaskCost(0, 1.0), TaskCost(1, 1 - 2**-53), TaskCost(2, 0.75)]
        got = place(tasks, slots)
        assert got.placement == {0: (0, 0), 1: (0, 1), 2: (0, 0)}
        assert (got.placement, got.slot_loads) == scan_place(tasks, slots)
