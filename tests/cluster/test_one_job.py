"""Simulation of the one-job cached plan (§5.1's distributed-cache form, any scheme)."""

import pytest

from repro._util import KB, MB, TB
from repro.cluster.node import ClusterSpec, NodeSpec
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import build_trace
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme


def simulator(**kwargs):
    defaults = dict(
        cluster=ClusterSpec.homogeneous(8, NodeSpec(slot_memory=400 * MB, slots=2)),
        maxis=1 * TB,
    )
    defaults.update(kwargs)
    return ClusterSimulator(**defaults)


class TestOneJobSimulation:
    def test_models_a_block_scheme_from_its_task_profiles(self):
        """Any scheme runs cached: its tasks are costed from their own profiles."""
        scheme, sim = BlockScheme(100, 5), simulator()
        report = sim.simulate_cached(scheme, 1 * KB)
        profiles = [scheme.task_profile(t) for t in range(scheme.num_tasks)]
        measured = report.measured
        assert measured.scheme == "block(cached)"
        assert measured.num_tasks == len(report.costs) == 15
        assert measured.total_evaluations == sum(p.num_evaluations for p in profiles) == 4950
        assert measured.max_evaluations_per_task == max(p.num_evaluations for p in profiles)
        assert [cost.task_id for cost in report.costs] == [p.subset_id for p in profiles]
        eval_seconds = 1.0 / sim.cluster.nodes[0].eval_rate
        assert [cost.seconds for cost in report.costs] == pytest.approx(
            [p.num_evaluations * eval_seconds for p in profiles], rel=0.01
        )
        # The report draws: its trace spans exactly the placed tasks.
        trace = build_trace(report.costs, sim.cluster)
        assert trace.makespan == pytest.approx(report.assignment.makespan)
        assert measured.makespan_seconds > trace.makespan  # plus the cache broadcast

    def test_replication_is_node_count(self):
        scheme = BroadcastScheme(500, 16)
        report = simulator().simulate_cached(scheme, 100 * KB)
        # Cache = one dataset copy per node, not per task.
        assert report.measured.replication_factor == 8

    def test_cheaper_intermediate_than_two_job_for_big_elements(self):
        """The one-job form ships results (16 B) instead of element
        copies — a large win when elements are big."""
        scheme = BroadcastScheme(500, 16)
        two_job = simulator().simulate(scheme, 500 * KB)
        one_job = simulator().simulate_cached(scheme, 500 * KB)
        assert (
            one_job.measured.intermediate_bytes
            < two_job.measured.intermediate_bytes
        )

    def test_evaluations_conserved(self):
        scheme = BroadcastScheme(300, 10)
        report = simulator().simulate_cached(scheme, 10 * KB)
        assert report.measured.total_evaluations == 300 * 299 // 2

    def test_broadcast_time_in_makespan(self):
        """A slow network makes the cache broadcast visible in makespan."""
        from repro.cluster.network import NetworkModel

        scheme = BroadcastScheme(500, 16)
        fast = simulator(network=NetworkModel(bandwidth=10_000 * MB)) \
            .simulate_cached(scheme, 1 * MB)
        slow = simulator(network=NetworkModel(bandwidth=10 * MB)) \
            .simulate_cached(scheme, 1 * MB)
        assert slow.measured.makespan_seconds > fast.measured.makespan_seconds

    def test_memory_limit_still_binds(self):
        scheme = BroadcastScheme(5000, 16)  # 5000 × 100 KB = 500 MB > slot
        report = simulator().simulate_cached(scheme, 100 * KB)
        assert not report.feasible

    def test_element_size_validation(self):
        with pytest.raises(ValueError):
            simulator().simulate_cached(BroadcastScheme(10, 2), 0)
