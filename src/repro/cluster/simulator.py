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
from typing import Collection, Sequence

from ..core.hierarchical import Schedule
from ..core.scheme import DistributionScheme, TaskProfile
from .metrics import MeasuredMetrics, TheoryComparison
from .network import NetworkModel
from .node import ClusterSpec, FailureModel, NodeSpec
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

    @property
    def feasible(self) -> bool:
        return all(check.ok for check in self.limit_checks)

    def compare(self, theory) -> TheoryComparison:
        return TheoryComparison(theory=theory, measured=self.measured)


@dataclass(frozen=True)
class FixedOverhead:
    """Constant per-task memory overhead in bytes (framework buffers)."""

    bytes: int = 0

    def apply(self, working_set_bytes: int) -> int:
        return working_set_bytes + self.bytes


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
    failure_model:
        Optional :class:`~repro.cluster.node.FailureModel`; when set,
        every ``simulate*`` also reports a failure-adjusted makespan in
        which each task carries its expected re-execution cost (wasted
        partial runs plus re-fetching its working set over the network).
    blacklist:
        Node indexes excluded from scheduling (TaskTracker blacklisting);
        the remaining nodes absorb the full task load.
    shuffle_plane:
        How intermediate data moves between phases.  ``"direct"``
        (default) models reducers fetching map output straight from the
        producing nodes — the per-task transfer term already covers it.
        ``"relay"`` models the legacy driver-relay plane: the whole
        shuffle volume is funnelled twice through a single driver link
        (:meth:`~repro.cluster.network.NetworkModel.relay_shuffle_time`),
        a serialized term added to the makespan and reported as
        ``driver_bytes``/``relay_seconds`` in the measured metrics.
    """

    SHUFFLE_PLANES = ("direct", "relay")

    def __init__(
        self,
        cluster: ClusterSpec,
        network: NetworkModel | None = None,
        *,
        maxis: int | None = None,
        task_overhead_bytes: int = 0,
        failure_model: FailureModel | None = None,
        blacklist: Collection[int] = (),
        shuffle_plane: str = "direct",
    ):
        self.cluster = cluster
        self.network = network or NetworkModel()
        self.maxis = maxis
        if shuffle_plane not in self.SHUFFLE_PLANES:
            raise ValueError(
                f"shuffle_plane must be one of {self.SHUFFLE_PLANES}, "
                f"got {shuffle_plane!r}"
            )
        self.shuffle_plane = shuffle_plane
        if task_overhead_bytes < 0:
            raise ValueError(
                f"task_overhead_bytes must be >= 0, got {task_overhead_bytes}"
            )
        self.task_overhead = FixedOverhead(task_overhead_bytes)
        self.failure_model = failure_model
        self.blacklist = frozenset(blacklist)

    def _place(self, costs: Sequence[TaskCost]) -> Assignment:
        """Place costs on the cluster's non-blacklisted slots."""
        return place(costs, cluster_slots(self.cluster, self.blacklist))

    def _relay_cost(self, shuffle_bytes: int) -> tuple[int, float]:
        """(driver bytes, serialized driver seconds) for one shuffle leg."""
        if self.shuffle_plane != "relay" or shuffle_bytes <= 0:
            return 0, 0.0
        return shuffle_bytes, self.network.relay_shuffle_time(
            shuffle_bytes, self.cluster.num_nodes
        )

    def _failure_impact(
        self,
        costs: Sequence[TaskCost],
        refetch_seconds: Sequence[float],
        base_makespan: float,
    ) -> tuple[float, float]:
        """(failure-adjusted makespan, expected re-executions) for a batch.

        Each task's cost is inflated to its expected completion time under
        the failure model — re-running LPT on the inflated costs, since a
        failure-heavy schedule can balance differently — and the expected
        number of failed runs is summed across tasks.  Without a failure
        model this is the identity: (``base_makespan``, 0).
        """
        if self.failure_model is None or not costs:
            return base_makespan, 0.0
        adjusted = [
            TaskCost(
                cost.task_id,
                self.failure_model.expected_task_seconds(cost.seconds, refetch),
            )
            for cost, refetch in zip(costs, refetch_seconds)
        ]
        reexecutions = sum(
            self.failure_model.expected_reexecutions(cost.seconds) for cost in costs
        )
        return self._place(adjusted).makespan, reexecutions

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
        max_task_memory = self.task_overhead.apply(max_ws_bytes)
        intermediate = replicas * element_size

        costs = [
            TaskCost(p.subset_id, self._task_seconds(p, element_size, eval_seconds, node))
            for p in profiles
        ]
        assignment = self._place(costs)
        # Recovery re-ships exactly the task's working set — the quantity
        # the scheme's replication choice controls.
        refetch = [
            self.network.transfer_time(p.num_members * element_size) for p in profiles
        ]
        adjusted, reexecutions = self._failure_impact(
            costs, refetch, assignment.makespan
        )
        driver_bytes, relay_seconds = self._relay_cost(intermediate)

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
            makespan_seconds=assignment.makespan + relay_seconds,
            makespan_failure_adjusted=adjusted + relay_seconds,
            expected_reexecutions=reexecutions,
            recovery_overhead_seconds=adjusted - assignment.makespan,
            shuffle_plane=self.shuffle_plane,
            driver_bytes=driver_bytes,
            relay_seconds=relay_seconds,
        )
        return SimulationReport(
            measured=measured,
            assignment=assignment,
            limit_checks=self._limits(max_task_memory, intermediate),
        )

    # -- the broadcast one-job form (§5.1) -------------------------------------------
    def simulate_broadcast_one_job(
        self,
        scheme,
        element_size: int,
        *,
        eval_seconds: float | None = None,
        result_bytes: int = 16,
    ) -> SimulationReport:
        """Simulate the distributed-cache one-job broadcast variant.

        Differences from the generic two-job path: the dataset is
        *broadcast once per node* (pipelined tree) instead of shuffled
        per task, and the only shuffled records are the 16-byte pair
        results (§3's id+value) — so intermediate storage is the cached
        dataset per node plus the result stream, not element replicas.
        """
        from ..core.broadcast import BroadcastScheme

        if not isinstance(scheme, BroadcastScheme):
            raise TypeError(
                "one-job simulation requires a BroadcastScheme, got "
                f"{type(scheme).__name__}"
            )
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
        # A recovered broadcast task must re-localize the *whole* cached
        # dataset on its replacement node — broadcast's recovery downside.
        refetch = [self.network.transfer_time(dataset_bytes)] * len(costs)
        adjusted, reexecutions = self._failure_impact(
            costs, refetch, assignment.makespan
        )

        total_evals = sum(p.num_evaluations for p in profiles)
        # Every node caches the dataset once; results add 2 records/eval.
        intermediate = (
            dataset_bytes * self.cluster.num_nodes
            + 2 * total_evals * result_bytes
        )
        max_task_memory = self.task_overhead.apply(dataset_bytes)
        measured = MeasuredMetrics(
            scheme=f"{scheme.name}(one-job)",
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
            makespan_failure_adjusted=broadcast_time + adjusted,
            expected_reexecutions=reexecutions,
            recovery_overhead_seconds=adjusted - assignment.makespan,
        )
        return SimulationReport(
            measured=measured,
            assignment=assignment,
            limit_checks=self._limits(max_task_memory, intermediate),
        )

    # -- hierarchical schedules ----------------------------------------------------
    #: fields of a schedule's report that add up over its sequential rounds …
    ROUND_SUMS = (
        "num_tasks", "replicas", "total_evaluations", "makespan_seconds",
        "makespan_failure_adjusted", "expected_reexecutions",
        "recovery_overhead_seconds", "driver_bytes", "relay_seconds",
    )
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
            shuffle_plane=self.shuffle_plane,
            **folded,
        )
        return SimulationReport(
            measured=measured,
            assignment=Assignment(reports[-1].assignment.placement, dict(slot_loads)),
            limit_checks=self._limits(
                folded["max_task_memory_bytes"], folded["intermediate_bytes"]
            ),
        )

    # -- input locality (§3's "most of the input data can be read locally") ---------
    def input_locality(
        self,
        dataset_bytes: int,
        *,
        dfs_block_size: int | None = None,
        dfs_replication: int = 3,
        num_map_tasks: int | None = None,
        seed: int = 0,
    ) -> dict[str, float]:
        """Estimate the local-read fraction of the distribution job's input.

        Places the dataset on a modelled DFS (block placement with
        replication) and assigns map tasks round-robin over nodes, as the
        engine's split planner would; returns the local/remote byte split
        and the resulting read-time estimate.  Backs the paper's §5.4
        assumption that network costs are dominated by *intermediate*
        data, input being mostly local.
        """
        from ..mapreduce.hdfs import DistributedFileSystem

        if dataset_bytes < 1:
            raise ValueError(f"dataset_bytes must be >= 1, got {dataset_bytes}")
        num_nodes = self.cluster.num_nodes
        if num_map_tasks is None:
            num_map_tasks = self.cluster.total_slots
        kwargs = {"replication": dfs_replication, "seed": seed}
        if dfs_block_size is not None:
            kwargs["block_size"] = dfs_block_size
        dfs = DistributedFileSystem(num_nodes, **kwargs)
        entry = dfs.create("dataset", dataset_bytes)

        local = remote = 0
        total_blocks = max(1, entry.num_blocks)
        for block_index, replicas in enumerate(entry.placements):
            # Map tasks read *contiguous* block ranges (file splits); the
            # task owning this block runs on a round-robin node.
            task = block_index * num_map_tasks // total_blocks
            reader = task % num_nodes
            size = dfs.block_size_of("dataset", block_index)
            if reader in replicas:
                local += size
            else:
                remote += size
        node = self.cluster.nodes[0]
        read_seconds = local / node.io_rate + (
            self.network.transfer_time(remote) if remote else 0.0
        )
        total = local + remote
        return {
            "local_bytes": float(local),
            "remote_bytes": float(remote),
            "local_fraction": local / total if total else 1.0,
            "read_seconds": read_seconds,
        }

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
