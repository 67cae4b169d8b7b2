"""Cluster-simulator tests: the §6 measurements."""

import dataclasses

import pytest

from repro._util import GB, KB, MB, TB
from repro.cluster.node import ClusterSpec, NodeSpec
from repro.cluster.simulator import ClusterSimulator
from repro.core.bipartite import BipartiteBlockScheme
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.hierarchical import HierarchicalBlockScheme, SequentialDesignSchedule


def simulator(**kwargs):
    defaults = dict(
        cluster=ClusterSpec.homogeneous(8, NodeSpec(slot_memory=200 * MB, slots=2)),
        maxis=1 * TB,
    )
    defaults.update(kwargs)
    return ClusterSimulator(**defaults)


class TestMeasuredVsTheory:
    def test_block_replication_exact(self):
        """§6: 'results for replication factor and working set sizes showed
        to be close to our theoretic evaluations' — block is exact."""
        scheme = BlockScheme(1000, 10)
        report = simulator().simulate(scheme, element_size=100 * KB)
        comparison = report.compare(scheme.metrics())
        by_name = {row.quantity: row for row in comparison.rows()}
        assert by_name["replication_factor"].relative_error == 0.0
        assert by_name["working_set_elements"].relative_error == 0.0

    def test_design_close_to_sqrt_v_theory(self):
        # v = 993 = 31²+31+1 is an exact plane size, where the paper's √v
        # approximation is tight; heavily truncated planes drift ~q/√v.
        scheme = DesignScheme(993)
        report = simulator().simulate(scheme, element_size=100 * KB)
        comparison = report.compare(DesignScheme.approx_metrics(993))
        by_name = {row.quantity: row for row in comparison.rows()}
        # √v approximations hold within a few percent on real planes.
        assert by_name["replication_factor"].relative_error < 0.05
        assert by_name["working_set_elements"].relative_error < 0.05

    def test_broadcast_ws_equals_dataset(self):
        scheme = BroadcastScheme(500, 16)
        report = simulator().simulate(scheme, element_size=100 * KB)
        assert report.measured.max_working_set_elements == 500
        assert report.measured.max_working_set_bytes == 500 * 100 * KB


class TestLimits:
    def test_overhead_triggers_early_maxws_violation(self):
        """The paper's §6 anecdote: the ws limit is hit *earlier* than the
        pure element count predicts because of runtime overhead."""
        scheme = BroadcastScheme(2000, 16)  # exactly 200 MB of elements
        clean = simulator().simulate(scheme, element_size=100 * KB)
        assert clean.feasible
        padded = simulator(task_overhead_bytes=20 * MB).simulate(
            scheme, element_size=100 * KB
        )
        assert not padded.feasible
        violated = [c for c in padded.limit_checks if not c.ok]
        assert violated and "maxws" in violated[0].name

    def test_maxis_violation_detected(self):
        scheme = DesignScheme(500)
        report = simulator(maxis=1 * GB).simulate(scheme, element_size=1 * MB)
        names = [c.name for c in report.limit_checks if not c.ok]
        assert any("maxis" in name for name in names)

    def test_maxis_check_optional(self):
        sim = ClusterSimulator(ClusterSpec.homogeneous(2))
        report = sim.simulate(BlockScheme(100, 5), element_size=1 * KB)
        assert len(report.limit_checks) == 1  # only maxws

    def test_limit_check_format(self):
        report = simulator().simulate(BlockScheme(100, 5), element_size=1 * KB)
        assert "maxws" in report.limit_checks[0].format()


class TestMakespan:
    def test_more_nodes_faster(self):
        scheme = BlockScheme(500, 10)
        small = simulator(
            cluster=ClusterSpec.homogeneous(2, NodeSpec(slots=2))
        ).simulate(scheme, element_size=10 * KB)
        large = simulator(
            cluster=ClusterSpec.homogeneous(16, NodeSpec(slots=2))
        ).simulate(scheme, element_size=10 * KB)
        assert large.measured.makespan_seconds < small.measured.makespan_seconds

    def test_total_evaluations_conserved(self):
        for scheme in (
            BroadcastScheme(200, 8),
            BlockScheme(200, 5),
            DesignScheme(200),
        ):
            report = simulator().simulate(scheme, element_size=10 * KB)
            assert report.measured.total_evaluations == 200 * 199 // 2

    def test_eval_seconds_override(self):
        scheme = BlockScheme(200, 5)
        fast = simulator().simulate(scheme, element_size=10 * KB, eval_seconds=1e-6)
        slow = simulator().simulate(scheme, element_size=10 * KB, eval_seconds=1e-2)
        assert slow.measured.makespan_seconds > fast.measured.makespan_seconds


class TestSchedules:
    def test_hierarchical_eases_both_limits(self):
        """§7: the two-level scheme reduces peak intermediate AND ws."""
        flat = simulator().simulate(BlockScheme(1000, 4), element_size=1 * MB)
        hier = simulator().simulate_schedule(
            HierarchicalBlockScheme(1000, 4, 4), element_size=1 * MB
        )
        assert hier.measured.intermediate_bytes < flat.measured.intermediate_bytes
        assert (
            hier.measured.max_working_set_bytes
            <= flat.measured.max_working_set_bytes
        )

    def test_sequential_design_reduces_intermediate(self):
        design = DesignScheme(500)
        flat = simulator().simulate(design, element_size=1 * MB)
        seq = simulator().simulate_schedule(
            SequentialDesignSchedule(design, 10), element_size=1 * MB
        )
        assert seq.measured.intermediate_bytes < flat.measured.intermediate_bytes / 5

    def test_schedule_evaluations_conserved(self):
        schedule = HierarchicalBlockScheme(200, 4, 3)
        report = simulator().simulate_schedule(schedule, element_size=10 * KB)
        assert report.measured.total_evaluations == 200 * 199 // 2

    def test_rounds_serialize_makespan(self):
        """Sequential rounds can't be faster than the sum of round bests."""
        schedule = HierarchicalBlockScheme(200, 4, 2)
        report = simulator().simulate_schedule(schedule, element_size=10 * KB)
        assert report.measured.makespan_seconds > 0

    def test_one_round_schedule_is_the_flat_simulation(self):
        """A schedule of one round measures what ``simulate`` measures, field for field."""
        design = DesignScheme(57)
        sim = simulator(task_overhead_bytes=1 * MB)
        flat = sim.simulate(design, element_size=10 * KB)
        seq = sim.simulate_schedule(SequentialDesignSchedule(design, 1), element_size=10 * KB)
        assert dataclasses.replace(seq.measured, scheme=flat.measured.scheme) == flat.measured
        assert seq.assignment == flat.assignment
        assert seq.limit_checks == flat.limit_checks

    @pytest.mark.parametrize(
        "schedule",
        [HierarchicalBlockScheme(60, 3, 2), SequentialDesignSchedule(DesignScheme(57), 5)],
        ids=["hierarchical-block", "sequential-design"],
    )
    def test_schedule_report_is_a_fold_over_its_rounds(self, schedule):
        """Each round is simulated as the scheme it is; every field is a sum or a max."""
        sim = simulator(task_overhead_bytes=1 * MB)
        report = sim.simulate_schedule(schedule, element_size=10 * KB)
        rounds = [sim.simulate(r, element_size=10 * KB) for r in schedule.rounds()]
        assert len(rounds) == schedule.num_rounds > 1
        folded = {"scheme", "v", "replication_factor"}
        for name in sim.ROUND_SUMS:
            total = sum(getattr(r.measured, name) for r in rounds)
            assert getattr(report.measured, name) == pytest.approx(total), name
        for name in sim.ROUND_PEAKS:
            assert getattr(report.measured, name) == max(getattr(r.measured, name) for r in rounds)
        named = folded | set(sim.ROUND_SUMS) | set(sim.ROUND_PEAKS)
        assert named == {f.name for f in dataclasses.fields(report.measured)}
        assert report.measured.v == schedule.v
        assert report.measured.replication_factor == report.measured.replicas / schedule.v
        assert report.measured.intermediate_bytes < report.measured.replicas * 10 * KB
        loads = {}
        for r in rounds:
            for slot, load in r.assignment.slot_loads.items():
                loads[slot] = loads.get(slot, 0.0) + load
        assert report.assignment.slot_loads == pytest.approx(loads)
        assert report.assignment.placement == rounds[-1].assignment.placement


class TestTwoSetSchemes:
    def test_rectangle_goes_through_the_flat_simulation(self):
        """A bipartite scheme is a scheme: replication is replicas over vr + vs."""
        scheme = BipartiteBlockScheme(100, 200, 5, 8)
        measured = simulator().simulate(scheme, element_size=10 * KB).measured
        assert measured.v == 300 and measured.num_tasks == 40
        assert measured.replication_factor == (100 * 8 + 200 * 5) / 300
        assert measured.total_evaluations == 100 * 200
        assert measured.max_working_set_elements == 20 + 25
        assert measured.replication_factor == scheme.metrics().replication_factor


class TestValidation:
    def test_bad_element_size(self):
        with pytest.raises(ValueError):
            simulator().simulate(BlockScheme(10, 2), element_size=0)
        with pytest.raises(ValueError):
            simulator().simulate_schedule(
                HierarchicalBlockScheme(10, 2, 2), element_size=0
            )

    def test_bad_overhead(self):
        with pytest.raises(ValueError):
            simulator(task_overhead_bytes=-1)
