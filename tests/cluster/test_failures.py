"""Failure-aware simulation: FailureModel, blacklisting, adjusted makespan."""

import math

import pytest

from repro.cluster import (
    ClusterSimulator,
    ClusterSpec,
    FailureModel,
    TaskCost,
)
from repro.cluster.node import NodeSpec
from repro.cluster.scheduler import cluster_slots, place
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.hierarchical import HierarchicalBlockScheme


CLUSTER = ClusterSpec.homogeneous(8)


def schedule(tasks, cluster, blacklist=()):
    return place(tasks, cluster_slots(cluster, blacklist))


def typical_task_seconds(scheme):
    report = ClusterSimulator(CLUSTER).simulate(scheme, element_size=1024)
    waves = max(1.0, report.measured.num_tasks / CLUSTER.total_slots)
    return report.measured.makespan_seconds / waves


class TestFailureModel:
    def test_probability_monotonic_in_duration(self):
        model = FailureModel(mtbf_seconds=100.0)
        assert model.failure_probability(0.0) == 0.0
        assert 0 < model.failure_probability(1.0) < model.failure_probability(10.0) < 1

    def test_from_rate_roundtrip(self):
        model = FailureModel.from_task_failure_rate(0.1, 5.0)
        assert model.failure_probability(5.0) == pytest.approx(0.1)

    def test_zero_rate_never_fails(self):
        model = FailureModel.from_task_failure_rate(0.0, 5.0)
        assert math.isinf(model.mtbf_seconds)
        assert model.failure_probability(1e9) == 0.0
        assert model.expected_task_seconds(7.0, refetch_seconds=3.0) == 7.0

    def test_expected_seconds_exceed_plain_seconds(self):
        model = FailureModel(mtbf_seconds=10.0, restart_overhead_seconds=0.5)
        assert model.expected_task_seconds(2.0, refetch_seconds=1.0) > 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(mtbf_seconds=0.0)
        with pytest.raises(ValueError):
            FailureModel(mtbf_seconds=1.0, restart_overhead_seconds=-1)
        with pytest.raises(ValueError):
            FailureModel.from_task_failure_rate(1.0, 5.0)


class TestBlacklisting:
    TASKS = [TaskCost(i, float(1 + i % 3)) for i in range(24)]

    def test_blacklisted_node_gets_no_tasks(self):
        assignment = schedule(self.TASKS, CLUSTER, blacklist={2})
        assert all(node != 2 for node, _slot in assignment.placement.values())

    def test_blacklist_raises_makespan(self):
        base = schedule(self.TASKS, CLUSTER).makespan
        degraded = schedule(self.TASKS, CLUSTER, blacklist={0, 1, 2}).makespan
        assert degraded > base

    def test_heterogeneous_blacklist(self):
        mixed = ClusterSpec(
            nodes=[NodeSpec(), NodeSpec(eval_rate=20_000.0), NodeSpec()]
        )
        assignment = schedule(self.TASKS, mixed, blacklist={1})
        assert all(node != 1 for node, _slot in assignment.placement.values())

    def test_everything_blacklisted_rejected(self):
        with pytest.raises(ValueError, match="blacklisted"):
            schedule(self.TASKS, CLUSTER, blacklist=set(range(8)))

    def test_out_of_range_blacklist_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            schedule(self.TASKS, CLUSTER, blacklist={99})

    def test_simulator_blacklist_slows_scheme(self):
        scheme = DesignScheme(13)
        base = ClusterSimulator(CLUSTER).simulate(scheme, element_size=1024)
        degraded = ClusterSimulator(CLUSTER, blacklist={0, 1, 2, 3}).simulate(
            scheme, element_size=1024
        )
        assert degraded.measured.makespan_seconds > base.measured.makespan_seconds


class TestFailureAdjustedMakespan:
    def test_no_model_is_identity(self):
        measured = ClusterSimulator(CLUSTER).simulate(
            DesignScheme(13), element_size=1024
        ).measured
        assert measured.makespan_failure_adjusted == measured.makespan_seconds
        assert measured.expected_reexecutions == 0.0
        assert measured.recovery_overhead_seconds == 0.0

    def test_monotonic_in_failure_rate(self):
        scheme = DesignScheme(13)
        typical = typical_task_seconds(scheme)
        previous = -1.0
        for rate in (0.0, 0.05, 0.15, 0.40):
            model = FailureModel.from_task_failure_rate(rate, typical)
            measured = ClusterSimulator(CLUSTER, failure_model=model).simulate(
                scheme, element_size=1024
            ).measured
            assert measured.makespan_failure_adjusted >= measured.makespan_seconds
            assert measured.makespan_failure_adjusted >= previous
            previous = measured.makespan_failure_adjusted
        assert previous > ClusterSimulator(CLUSTER).simulate(
            scheme, element_size=1024
        ).measured.makespan_seconds

    def test_deterministic(self):
        model = FailureModel(mtbf_seconds=5.0)
        runs = [
            ClusterSimulator(CLUSTER, failure_model=model)
            .simulate(BlockScheme(12, 3), element_size=1024)
            .measured
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_broadcast_one_job_reports_failure_fields(self):
        scheme = BroadcastScheme(64, 16)
        model = FailureModel(mtbf_seconds=1.0)
        measured = ClusterSimulator(
            CLUSTER, failure_model=model
        ).simulate_broadcast_one_job(scheme, element_size=4096).measured
        assert measured.expected_reexecutions > 0
        assert measured.recovery_overhead_seconds > 0
        assert (
            measured.makespan_failure_adjusted
            == pytest.approx(
                measured.makespan_seconds + measured.recovery_overhead_seconds
            )
        )

    def test_schedule_accumulates_over_rounds(self):
        schedule = HierarchicalBlockScheme(24, 3, 2)
        model = FailureModel(mtbf_seconds=1.0)
        plain = ClusterSimulator(CLUSTER).simulate_schedule(
            schedule, element_size=4096
        ).measured
        failing = ClusterSimulator(CLUSTER, failure_model=model).simulate_schedule(
            schedule, element_size=4096
        ).measured
        assert failing.makespan_seconds == plain.makespan_seconds
        assert failing.makespan_failure_adjusted > plain.makespan_failure_adjusted

    def test_recovery_cost_tracks_working_set_size(self):
        """Per re-execution, a broadcast task (whole dataset refetch) pays
        more recovery overhead than a design task (small working set)."""
        v, element_size = 64, 4096
        model = FailureModel(mtbf_seconds=2.0)
        sim = ClusterSimulator(CLUSTER, failure_model=model)
        broadcast = sim.simulate_broadcast_one_job(
            BroadcastScheme(v, 16), element_size=element_size
        ).measured
        design = sim.simulate(DesignScheme(57), element_size=element_size).measured
        per_reexec_broadcast = (
            broadcast.recovery_overhead_seconds / broadcast.expected_reexecutions
        )
        per_reexec_design = (
            design.recovery_overhead_seconds / design.expected_reexecutions
        )
        assert per_reexec_broadcast > per_reexec_design
