"""Discrete cluster simulator: runs a scheme's task graph on modelled nodes.

This is the substitute for the paper's AWS-EC2 / Google-IBM cloud runs
(§6).  Given a distribution scheme, an element size, and a cluster, it

1. profiles every task (members, evaluations) via the schemes' O(1)
   closed forms,
2. estimates per-task time = shuffle-in + compute + write-out under the
   node and network models,
3. places tasks onto slots (costliest first, each to the slot that
   finishes it earliest — Hadoop's greedy slot filling),
4. measures the paper's §6 quantities: replication factor, working-set
   sizes (with the runtime memory overhead that made the paper hit maxws
   "a little earlier than expected"), intermediate storage, makespan,

and reports limit violations against maxws/maxis.  A hierarchical schedule
is its rounds simulated one after the other — each round is a scheme like
any other — with the reports folded by sum or maximum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.hierarchical import Schedule
from ..core.scheme import DistributionScheme, TaskProfile
from .metrics import MeasuredMetrics, TheoryComparison
from .network import NetworkModel
from .node import ClusterSpec, NodeSpec
from .scheduler import Assignment, TaskCost, cluster_slots, place


@dataclass(frozen=True)
class LimitCheck:
    """Outcome of checking one environment limit."""

    name: str
    limit: int
    observed: int
    ok: bool

    def format(self) -> str:
        state = "ok" if self.ok else "VIOLATED"
        return f"{self.name}: observed {self.observed} vs limit {self.limit} [{state}]"


@dataclass
class SimulationReport:
    """Everything one simulated run produced."""

    measured: MeasuredMetrics
    assignment: Assignment
    limit_checks: list[LimitCheck] = field(default_factory=list)
    #: the task costs a flat :meth:`ClusterSimulator.simulate` or
    #: :meth:`~ClusterSimulator.simulate_cached` placed, which
    #: :func:`~repro.cluster.trace.build_trace` turns into its timeline
    costs: list[TaskCost] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return all(check.ok for check in self.limit_checks)

    def compare(self, theory) -> TheoryComparison:
        return TheoryComparison(theory=theory, measured=self.measured)


class ClusterSimulator:
    """Simulate pairwise-computation runs on a modelled cluster.

    Parameters
    ----------
    cluster:
        Node specs (slot memory = the paper's maxws, plus overhead model).
    network:
        α–β network model for shuffle and broadcast timing.
    maxis:
        Intermediate-storage limit in bytes (cluster-wide), the paper's
        maxis.  ``None`` disables that check.
    task_overhead_bytes:
        Fixed per-task memory beyond the working set — the "other
        variables and data [that] need to be kept in memory" of §6.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        network: NetworkModel | None = None,
        *,
        maxis: int | None = None,
        task_overhead_bytes: int = 0,
    ):
        self.cluster = cluster
        self.network = network or NetworkModel()
        self.maxis = maxis
        if task_overhead_bytes < 0:
            raise ValueError(
                f"task_overhead_bytes must be >= 0, got {task_overhead_bytes}"
            )
        self.task_overhead_bytes = task_overhead_bytes

    def _place(self, costs: list[TaskCost]) -> Assignment:
        return place(costs, cluster_slots(self.cluster))

    # -- per-task cost model ----------------------------------------------------
    def _task_seconds(
        self, profile: TaskProfile, element_size: int, eval_seconds: float, node: NodeSpec
    ) -> float:
        """Shuffle-in + compute + write-out time of one task on one slot."""
        in_bytes = profile.num_members * element_size
        out_bytes = in_bytes  # copies go back out, results are small (§3)
        transfer = self.network.transfer_time(in_bytes)
        io = (in_bytes + out_bytes) / node.io_rate
        compute = profile.num_evaluations * eval_seconds
        return transfer + io + compute

    # -- flat schemes -------------------------------------------------------------
    def simulate(
        self,
        scheme: DistributionScheme,
        element_size: int,
        *,
        eval_seconds: float | None = None,
    ) -> SimulationReport:
        """Run one flat scheme; returns measured metrics + limit checks."""
        if element_size < 1:
            raise ValueError(f"element_size must be >= 1, got {element_size}")
        node = self.cluster.nodes[0]
        if eval_seconds is None:
            eval_seconds = 1.0 / node.eval_rate

        profiles = [scheme.task_profile(t) for t in range(scheme.num_tasks)]
        replicas = sum(p.num_members for p in profiles)
        total_evals = sum(p.num_evaluations for p in profiles)
        max_ws_elems = max(p.num_members for p in profiles)
        max_ws_bytes = max_ws_elems * element_size
        max_task_memory = max_ws_bytes + self.task_overhead_bytes
        intermediate = replicas * element_size

        costs = [
            TaskCost(p.subset_id, self._task_seconds(p, element_size, eval_seconds, node))
            for p in profiles
        ]
        assignment = self._place(costs)

        measured = MeasuredMetrics(
            scheme=scheme.name,
            v=scheme.v,
            num_tasks=scheme.num_tasks,
            replicas=replicas,
            replication_factor=replicas / scheme.v,
            max_working_set_elements=max_ws_elems,
            max_working_set_bytes=max_ws_bytes,
            max_task_memory_bytes=max_task_memory,
            intermediate_bytes=intermediate,
            total_evaluations=total_evals,
            max_evaluations_per_task=max(p.num_evaluations for p in profiles),
            makespan_seconds=assignment.makespan,
        )
        return SimulationReport(
            measured=measured,
            assignment=assignment,
            limit_checks=self._limits(max_task_memory, intermediate),
            costs=costs,
        )

    # -- the cached one-job plan (§5.1, any scheme) -----------------------------------
    def simulate_cached(
        self,
        scheme,
        element_size: int,
        *,
        eval_seconds: float | None = None,
        result_bytes: int = 16,
    ) -> SimulationReport:
        """Simulate the one-job cached plan of any scheme (it mirrors ``run_cached``).

        Differences from the two-job path :meth:`simulate` models: the
        dataset is *broadcast once per node* (pipelined tree) instead of
        shuffled per task, every task reads its working set from that local
        copy, and the only shuffled records are the 16-byte pair results
        (§3's id+value) — so intermediate storage is the cached dataset per
        node plus the result stream, not element replicas.
        """
        if element_size < 1:
            raise ValueError(f"element_size must be >= 1, got {element_size}")
        node = self.cluster.nodes[0]
        if eval_seconds is None:
            eval_seconds = 1.0 / node.eval_rate

        dataset_bytes = scheme.v * element_size
        broadcast_time = self.network.broadcast_time(
            dataset_bytes, self.cluster.num_nodes
        )

        profiles = [scheme.task_profile(t) for t in range(scheme.num_tasks)]
        costs = []
        for p in profiles:
            # The cache read is local; per task: compute + emit results.
            out_bytes = 2 * p.num_evaluations * result_bytes
            seconds = p.num_evaluations * eval_seconds + out_bytes / node.io_rate
            costs.append(TaskCost(p.subset_id, seconds))
        assignment = self._place(costs)

        total_evals = sum(p.num_evaluations for p in profiles)
        # Every node caches the dataset once; results add 2 records/eval.
        intermediate = (
            dataset_bytes * self.cluster.num_nodes
            + 2 * total_evals * result_bytes
        )
        max_task_memory = dataset_bytes + self.task_overhead_bytes
        measured = MeasuredMetrics(
            scheme=f"{scheme.name}(cached)",
            v=scheme.v,
            num_tasks=scheme.num_tasks,
            replicas=scheme.v * self.cluster.num_nodes,
            replication_factor=float(self.cluster.num_nodes),
            max_working_set_elements=scheme.v,
            max_working_set_bytes=dataset_bytes,
            max_task_memory_bytes=max_task_memory,
            intermediate_bytes=intermediate,
            total_evaluations=total_evals,
            max_evaluations_per_task=max(p.num_evaluations for p in profiles),
            makespan_seconds=broadcast_time + assignment.makespan,
        )
        return SimulationReport(
            measured=measured,
            assignment=assignment,
            limit_checks=self._limits(max_task_memory, intermediate),
            costs=costs,
        )

    # -- hierarchical schedules ----------------------------------------------------
    #: fields of a schedule's report that add up over its sequential rounds …
    ROUND_SUMS = ("num_tasks", "replicas", "total_evaluations", "makespan_seconds")
    #: … and those that are the worst round's (one round is alive at a time)
    ROUND_PEAKS = (
        "max_working_set_elements", "max_working_set_bytes", "max_task_memory_bytes",
        "intermediate_bytes", "max_evaluations_per_task",
    )

    def simulate_schedule(
        self,
        schedule: Schedule,
        element_size: int,
        *,
        eval_seconds: float | None = None,
    ) -> SimulationReport:
        """Simulate sequential rounds: :meth:`simulate` per round, folded.

        Makespans, replicas and evaluations add up (:attr:`ROUND_SUMS`);
        intermediate storage is the *peak round's* replicas — the §7
        easing — and the working-set figures are the worst fine-grained
        task's (:attr:`ROUND_PEAKS`).  The assignment keeps the last
        round's placement with slot loads summed over all rounds.
        """
        reports = [
            self.simulate(round_, element_size, eval_seconds=eval_seconds)
            for round_ in schedule.rounds()
        ]
        rounds = [report.measured for report in reports]
        folded = {name: sum(getattr(m, name) for m in rounds) for name in self.ROUND_SUMS}
        folded.update(
            {name: max(getattr(m, name) for m in rounds) for name in self.ROUND_PEAKS}
        )
        slot_loads: Counter = Counter()
        for report in reports:
            slot_loads.update(report.assignment.slot_loads)
        measured = MeasuredMetrics(
            scheme=type(schedule).__name__,
            v=schedule.v,
            replication_factor=folded["replicas"] / schedule.v,
            **folded,
        )
        return SimulationReport(
            measured=measured,
            assignment=Assignment(reports[-1].assignment.placement, dict(slot_loads)),
            limit_checks=self._limits(
                folded["max_task_memory_bytes"], folded["intermediate_bytes"]
            ),
        )

    # -- limits ---------------------------------------------------------------------
    def _limits(self, max_task_memory: int, intermediate: int) -> list[LimitCheck]:
        checks = [
            LimitCheck(
                name="maxws (slot memory)",
                limit=self.cluster.min_slot_memory,
                observed=max_task_memory,
                ok=max_task_memory <= self.cluster.min_slot_memory,
            )
        ]
        if self.maxis is not None:
            checks.append(
                LimitCheck(
                    name="maxis (intermediate storage)",
                    limit=self.maxis,
                    observed=intermediate,
                    ok=intermediate <= self.maxis,
                )
            )
        return checks
