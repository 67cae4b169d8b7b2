"""Execution engines: run a :class:`~repro.mapreduce.job.Job` over splits.

Two engines share one code path per task (worker-side execution lives in
:mod:`repro.mapreduce.tasks`, attempt/retry decisions and the dispatch
order in :mod:`repro.mapreduce.controlplane`, spill-file plumbing in
:mod:`repro.mapreduce.spill`): :class:`SerialEngine` runs everything
in-process and deterministic (the default for tests and validation);
:class:`MultiprocessEngine` fans map and reduce tasks out over a
**persistent** ``ProcessPoolExecutor`` that lives across phases and
chained jobs (everything shipped must be picklable; results are
bit-identical to the serial engine).

The multiprocess engine is built around two ideas from the paper's cost
model (replication rate × communication cost is the governing tradeoff):
**one-shot job broadcast** (a job's static parts are pickled once to a
broadcast file and localized lazily per worker — see
:mod:`repro.mapreduce.tasks`) and a **direct, driver-bypass shuffle**
(``shuffle_mode="direct"``: map output moves through attempt-scoped
spill files and only manifests cross the driver — see
:mod:`repro.mapreduce.spill`; ``"relay"`` keeps the legacy
driver-forwarding plane).  One stage loop runs every job and chain
(:meth:`Engine.run` is the one-stage case of :meth:`Engine.run_chain`);
on the pooled engine's direct plane it *fuses* adjacent stages whose next
map phase is identity-shaped (see :mod:`repro.mapreduce.fusion`).  **Fault
tolerance** mirrors Hadoop 0.20: the driver re-runs a failed task as a
new attempt it dispatches itself, with per-attempt wall-clock budgets,
deterministic retry backoff, transparent recovery from dead workers
(pool respawn + lost-attempt charging via began-markers) and driver-side
kills of hung attempts — see :mod:`repro.mapreduce.controlplane.attempts`
for the state machine.  A task never has two attempts in flight.

**Control plane.**  Both engines orchestrate through the shared control
plane: an :class:`~repro.mapreduce.controlplane.AttemptTracker` per
phase owns the attempt lifecycle, and a phase's tasks are handed to free
slots costliest first
(:func:`~repro.mapreduce.controlplane.policy.dispatch_order` over the
paper's ``|D_l|`` split sizes and ``|P_l|`` partition bytes); results
do not depend on the order because outputs are keyed by task index.
Engines narrate attempt transitions, spills, and bytes
moved on an :class:`~repro.mapreduce.controlplane.EventBus`
(``trace_sink=`` attaches a
:class:`~repro.mapreduce.controlplane.JsonlTraceSink` whose file loads
straight into :class:`repro.cluster.trace.Trace`).

Both engines meter the framework counters the evaluation harness
compares against the paper's Table-1 predictions.  Engine-level dispatch
metrics (bytes pickled, broadcast loads) are deliberately kept *out* of
job counters so serial and pooled runs stay bit-identical.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Sequence

from .controlplane import (
    AttemptTracker,
    BytesMoved,
    EventBus,
    PhaseMarker,
    SpillQuarantined,
    SpillWritten,
    TaskAttempt,
    TaskCost,
    dispatch_order,
)
from .controlplane.attempts import TaskRetries, backoff_seconds
from .counters import (
    FRAMEWORK_GROUP,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
    Counters,
)
from .faults import FaultPlan
from .fusion import fusable
from .job import Job, JobResult, KeyValue, TaskFailedError, TaskLostError
from .journal import JobJournal
from .serialization import SpillCorruptionError, write_encoded
from .spill import parse_spill_file_name
from .splits import Split, split_by_count
from .stats import EngineStats, ShuffleState
from .tasks import (  # noqa: F401  (re-exports)
    DEFAULT_SPILL_THRESHOLD_BYTES,
    REDUCE_SPILL_RUNS,
    REDUCE_SPILLED_RECORDS,
    JobRef,
    MapTaskSpec,
    NextStage,
    ReduceTaskSpec,
    marker_path,
    replay_map_task,
    run_pickled_spec,
    run_spec,
    worker_init,
)

#: Records per map split when the caller does not pass ``num_map_tasks``.
#: An explicit ``num_map_tasks`` always wins: records are then carved into
#: exactly that many near-equal splits and this constant is ignored.
DEFAULT_RECORDS_PER_SPLIT = 5000

#: Below this many records, :func:`choose_engine` picks :class:`SerialEngine`.
#: Hand-set: at small scale (``tiny-auto-latency`` in ``benchmarks/e2e``,
#: a few thousand shuffled records) pool startup plus per-job broadcasts
#: cost more than the computation, while large record volumes amortize
#: the dispatch overhead.  ``variant.serial_wall_ratio`` on the ladder is
#: the measurement to re-derive it from.
AUTO_SERIAL_MAX_RECORDS = 20_000

#: driver polling cadence for completion/hang checks
_POLL_SECONDS = 0.05

#: shuffle data planes a :class:`MultiprocessEngine` supports
SHUFFLE_MODES = ("direct", "relay")

#: broadcast data planes a :class:`MultiprocessEngine` supports.  Both
#: ship the distributed cache inside the per-job broadcast file
#: (NPB1-framed; workers map it and read ndarray payloads as read-only
#: views over the page cache); they differ only in where that file lives:
#: the engine's disk temp dir (``"default"``) or :data:`SHM_DIR`
#: (``"shm"``).
DATA_PLANES = ("default", "shm")

#: the tmpfs the ``"shm"`` plane writes its broadcast files to
SHM_DIR = "/dev/shm"


def shm_available() -> bool:
    """Whether :data:`SHM_DIR` is a writable directory (the ``"shm"`` plane's home).

    Some containers mount no ``/dev/shm``; the engine then downgrades to
    the default data plane instead of failing the first job.
    """
    return os.path.isdir(SHM_DIR) and os.access(SHM_DIR, os.W_OK)


class Engine:
    """Shared orchestration: split planning, shuffle accounting, result.

    ``trace_sink`` (e.g. a
    :class:`~repro.mapreduce.controlplane.JsonlTraceSink`) subscribes to
    the engine's :attr:`events` bus and is closed with the engine.
    ``max_attempts``, ``task_timeout_seconds``, ``retry_backoff_seconds``
    and ``fault_plan`` are the task-retry settings of every job the
    engine runs, range-checked here and kept as :attr:`retries` (see
    :class:`~repro.mapreduce.controlplane.attempts.TaskRetries`).
    """

    #: how map output reaches reduce tasks; pooled engines override
    _shuffle_mode = "memory"

    #: reduce tasks one wave can hold; ``None`` = no cap (tasks run one
    #: after another, so a partition count costs no slot)
    reduce_slots: int | None = None

    def __init__(
        self,
        *,
        trace_sink: Any = None,
        max_attempts: int = 1,
        task_timeout_seconds: float | None = None,
        retry_backoff_seconds: float = 0.0,
        fault_plan: FaultPlan | None = None,
    ):
        self.retries = TaskRetries(
            max_attempts, task_timeout_seconds, retry_backoff_seconds, fault_plan
        )
        self.events = EventBus()
        self._trace_sink = trace_sink
        #: (job, handle, splits, num_partitions) of the current map phase
        self._map_context: tuple | None = None
        if trace_sink is not None:
            self.events.subscribe(trace_sink.record)

    # -- observability ---------------------------------------------------------
    @property
    def _observing(self) -> bool:
        """True when someone listens; event objects aren't built otherwise."""
        return len(self.events) > 0

    def _bus(self) -> EventBus | None:
        return self.events if self._observing else None

    def _emit(self, event: Any) -> None:
        self.events.emit(event)

    def run(
        self,
        job: Job,
        input_records: Sequence[KeyValue] | None = None,
        *,
        splits: list[Split] | None = None,
        num_map_tasks: int | None = None,
    ) -> JobResult:
        """Execute ``job`` over ``input_records`` (or pre-built ``splits``).

        The one-stage case of :meth:`run_chain`.  ``num_map_tasks``
        controls split planning when raw records are given; when omitted,
        one split is planned per :data:`DEFAULT_RECORDS_PER_SPLIT`
        records, at least one.
        """
        if (input_records is None) == (splits is None):
            raise ValueError("provide exactly one of input_records or splits")
        return self._run_stages([job], input_records, splits, num_map_tasks, True)[0]

    def run_chain(
        self,
        jobs: Sequence[Job],
        input_records: Sequence[KeyValue],
        *,
        num_map_tasks: int | None = None,
        fuse: bool = True,
    ) -> list[JobResult]:
        """Run a job chain; stage i+1 consumes stage i's output.

        Returns the per-stage :class:`~repro.mapreduce.job.JobResult`
        list.  A stage's :class:`~repro.mapreduce.job.TaskFailedError` is
        re-raised annotated with ``stage_index``/``job_name``.  Where the
        engine can (:meth:`_fuses`: a pooled engine on the direct plane,
        unjournaled, across a :func:`~repro.mapreduce.fusion.fusable`
        boundary) stage i's reducers spill stage i+1's shuffle input at
        source: stage i reports ``records_elided=True`` and an empty
        record list, stage i+1 runs no map tasks, and its data-plane
        counters equal the unfused run's (only ``task_attempts`` differs,
        since no map attempts run).  ``fuse=True`` (the default) fuses
        where safe; ``fuse=False`` never does, so every stage's records
        are materialized.  An empty chain raises ``ValueError``.
        """
        if not jobs:
            raise ValueError("a job chain needs at least one job")
        return self._run_stages(list(jobs), input_records, None, num_map_tasks, fuse)

    def _run_stages(
        self,
        jobs: list[Job],
        records: Sequence[KeyValue] | None,
        splits: list[Split] | None,
        num_map_tasks: int | None,
        fuse: bool,
    ) -> list[JobResult]:
        """The stage loop behind :meth:`run` and :meth:`run_chain`.

        Every stage reduces a :class:`ShuffleState`; a fused boundary only
        changes who produced it — this stage's map tasks, or the previous
        stage's reducers spilling at source.  ``splits`` pre-plans stage
        0's map phase (``run(job, splits=…)``).
        """
        results: list[JobResult] = []
        handles: list[Any] = []  # handles[i] references jobs[i]

        def handle_for(index: int) -> Any:
            if index == len(handles):
                handles.append(self._job_handle(jobs[index]))
            return handles[index]

        state: ShuffleState | None = None  # spilled at source by stage i-1
        started = time.monotonic()
        try:
            for index, (job, nxt) in enumerate(zip(jobs, [*jobs[1:], None])):
                handle = handle_for(index)
                num_partitions = job.num_reducers if job.reducer is not None else 0
                counters = Counters()
                num_splits = 0
                if state is None:
                    if index or splits is None:
                        assert records is not None
                        splits = self._plan_splits(records, num_map_tasks)
                    num_splits = len(splits)
                    self._journal_submit(job, handle, splits, num_partitions)
                    state = self._map_phase(
                        job, handle, splits, num_partitions, counters
                    )
                else:
                    # Fused-in stage: its shuffle input is already on disk.
                    # Synthesize the elided identity map's data-plane
                    # counters from the manifest sums so fused and unfused
                    # runs report identical volumes.
                    fed_records = sum(state.part_records)
                    fed_bytes = sum(state.part_bytes)
                    counters.increment(FRAMEWORK_GROUP, MAP_INPUT_RECORDS, fed_records)
                    counters.increment(FRAMEWORK_GROUP, MAP_OUTPUT_RECORDS, fed_records)
                    counters.increment(FRAMEWORK_GROUP, MAP_OUTPUT_BYTES, fed_bytes)
                if job.reducer is None:
                    records = [record for part in state.gathered for record in part]
                    state = None
                else:
                    # Shuffle volume comes from the per-partition sums the
                    # producing tasks reported — the records were measured
                    # exactly once, task-side.
                    counters.increment(
                        FRAMEWORK_GROUP, SHUFFLE_RECORDS, sum(state.part_records)
                    )
                    counters.increment(
                        FRAMEWORK_GROUP, SHUFFLE_BYTES, sum(state.part_bytes)
                    )
                    next_stage = None
                    if nxt is not None and self._fuses(job, nxt, fuse):
                        next_handle = handle_for(index + 1)
                        next_stage = NextStage(
                            job=next_handle,
                            num_partitions=nxt.num_reducers,
                            spill_dir=self._shuffle_dir(next_handle),
                        )
                    outputs = self._reduce_phase(
                        job, handle, state, next_stage=next_stage
                    )
                    if next_stage is None:
                        records = [
                            r for part in self._fold(outputs, counters) for r in part
                        ]
                        state = None
                    else:
                        records = []
                        state = self._gather(
                            outputs,
                            "fuse",
                            "direct",
                            next_stage.num_partitions,
                            counters,
                        )
                        self.stats.fused_stages += 1
                self._journal_finish(handle)
                results.append(
                    JobResult(
                        records,
                        counters,
                        num_splits,
                        num_partitions,
                        records_elided=state is not None,
                    )
                )
            return results
        except TaskFailedError as exc:
            # Only a stage's tasks raise it: the loop variables name the
            # stage that died.
            exc.stage_index = index
            exc.job_name = job.name
            raise
        finally:
            self._note_run(time.monotonic() - started)
            for handle in handles:
                self._release_job(handle)

    @staticmethod
    def _plan_splits(
        input_records: Sequence[KeyValue], num_map_tasks: int | None
    ) -> list[Split]:
        if num_map_tasks is None:
            num_map_tasks = max(1, len(input_records) // DEFAULT_RECORDS_PER_SPLIT)
        return split_by_count(input_records, num_map_tasks)

    @staticmethod
    def _dispatch_order(specs: list[Any]) -> list[int]:
        """Positions of a phase's specs, costliest working set first.

        The one place either engine orders a phase.  Map tasks are costed
        by their split's record count (the paper's ``|D_l|``), reduce
        tasks by their partition's accounted bytes (``|P_l|``, falling
        back to the record count for in-memory partitions).  Units are
        arbitrary — the order only compares.
        """

        def cost(spec: Any) -> int:
            if isinstance(spec, MapTaskSpec):
                return len(spec.records)
            return spec.partition_bytes or spec.num_records

        return dispatch_order(
            [TaskCost(index, float(cost(spec))) for index, spec in enumerate(specs)]
        )

    def _phase_marker(self, job: Job, kind: str, num_tasks: int, state: str) -> None:
        if self._observing:
            self._emit(
                PhaseMarker(
                    time=time.monotonic(),
                    job=job.name,
                    kind=kind,
                    num_tasks=num_tasks,
                    state=state,
                )
            )

    def _map_phase(
        self,
        job: Job,
        handle: Any,
        splits: list[Split],
        num_partitions: int,
        counters: Counters,
    ) -> ShuffleState:
        """Run the map tasks and gather their partitioned output by mode."""
        mode = self._shuffle_mode if num_partitions > 0 else "memory"
        spill_dir = self._shuffle_dir(handle) if mode == "direct" else None
        # Stashed so corruption recovery during the *reduce* phase can
        # replay a producing map task from its original split.
        self._map_context = (job, handle, splits, num_partitions)
        durable = spill_dir is not None and self._durable_spills()
        map_specs = [
            MapTaskSpec(
                job=handle,
                records=split.records,
                num_partitions=num_partitions,
                encode=mode != "memory",
                spill_dir=spill_dir,
                task_index=index,
                durable_spill=durable,
            )
            for index, split in enumerate(splits)
        ]
        self._phase_marker(job, "map", len(map_specs), "started")
        map_outputs = self._run_tasks(map_specs)
        state = self._gather(map_outputs, "map", mode, num_partitions, counters)
        self._phase_marker(job, "map", len(map_specs), "finished")
        return state

    def _fold(self, outputs: list[Any], counters: Counters) -> list[Any]:
        """Bring one wave's task output home; return the tasks' payloads.

        Each task returns ``(payload, counters, info)``: its counters
        merge into the job's, its worker info into the engine's stats.
        """
        payloads = []
        for payload, counter_dict, info in outputs:
            counters.merge(Counters.from_dict(counter_dict))
            self._note_worker(info)
            payloads.append(payload)
        return payloads

    def _gather(
        self,
        outputs: list[Any],
        kind: str,
        mode: str,
        num_partitions: int,
        counters: Counters,
    ) -> ShuffleState:
        """Fold a wave of partitioned task output into a shuffle state.

        The tasks are a stage's map tasks (``kind="map"``) or the previous
        stage's fused reducers (``kind="fuse"``, always ``mode="direct"``);
        either way a payload is ``(partitions, counts, sizes)`` with one
        slot per partition: raw records, an encoded chunk, or a
        ``(path, payload_bytes, offset)`` manifest entry naming the
        partition's segment in the task's one spill file (``None`` when
        empty).
        """
        slots = max(1, num_partitions)
        gathered: list[list] = [[] for _ in range(slots)]
        part_records = [0] * slots
        part_bytes = [0] * slots
        observing = self._observing
        channel = "map_manifest" if kind == "map" else "fused_manifest"
        payloads = self._fold(outputs, counters)
        for task, (partitions, counts, sizes) in enumerate(payloads):
            if mode == "direct":
                # What crossed the driver for this task is its manifest.
                manifest_bytes = len(
                    pickle.dumps(partitions, protocol=pickle.HIGHEST_PROTOCOL)
                )
                self.stats.driver_bytes += manifest_bytes
                # One file per producing task, however many segments.
                self.stats.spill_files_written += any(part is not None for part in partitions)
                if observing:
                    self._emit(
                        BytesMoved(
                            time=time.monotonic(),
                            channel=channel,
                            num_bytes=manifest_bytes,
                        )
                    )
            relayed = 0
            for index, part in enumerate(partitions):
                if mode == "memory":
                    gathered[index].extend(part)
                elif mode == "relay":
                    if counts[index]:
                        gathered[index].append(part)
                        self.stats.driver_bytes += len(part)
                        relayed += len(part)
                elif part is not None:  # direct: one segment's entry
                    gathered[index].append(part)
                    self.stats.spill_bytes_written += part[1]
                    if observing:
                        self._emit(
                            SpillWritten(
                                time=time.monotonic(),
                                kind=kind,
                                task_index=task,
                                partition=index,
                                num_bytes=part[1],
                            )
                        )
                part_records[index] += counts[index]
                part_bytes[index] += sizes[index]
            if observing and relayed:
                self._emit(
                    BytesMoved(
                        time=time.monotonic(),
                        channel="map_output",
                        num_bytes=relayed,
                    )
                )
        return ShuffleState(
            mode=mode,
            gathered=gathered,
            part_records=part_records,
            part_bytes=part_bytes,
        )

    def _reduce_phase(
        self,
        job: Job,
        handle: Any,
        state: ShuffleState,
        *,
        next_stage: NextStage | None = None,
    ) -> list[Any]:
        """Build and run the reduce tasks over gathered map output."""
        scratch = self._reduce_scratch_dir(handle)
        reduce_specs = []
        for index in range(len(state.gathered)):
            part = state.gathered[index]
            reduce_specs.append(
                ReduceTaskSpec(
                    job=handle,
                    records=part if state.mode == "memory" else None,
                    chunks=part if state.mode == "relay" else None,
                    spill_paths=part if state.mode == "direct" else None,
                    num_records=state.part_records[index],
                    partition_bytes=state.part_bytes[index],
                    task_index=index,
                    next_stage=next_stage,
                    scratch_dir=scratch,
                )
            )
        self._phase_marker(job, "reduce", len(reduce_specs), "started")
        outputs = self._run_tasks(reduce_specs)
        self._phase_marker(job, "reduce", len(reduce_specs), "finished")
        return outputs

    def close(self) -> None:
        """Release engine resources and close the attached trace sink."""
        if self._trace_sink is not None:
            self._trace_sink.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- engine-specific hooks -------------------------------------------------
    def _job_handle(self, job: Job) -> Any:
        """How task specs reference the job (the job itself by default)."""
        return job

    def _release_job(self, handle: Any) -> None:
        """Called once the job's phases are done (noop by default)."""

    def _shuffle_dir(self, handle: Any) -> str:
        """Scratch dir for a job's spill files (direct-mode engines only)."""
        raise NotImplementedError  # pragma: no cover - direct mode only

    def _fuses(self, prev: Job, nxt: Job, fuse: bool) -> bool:
        """True when ``prev``'s reducers spill ``nxt``'s shuffle input at source.

        Needs a shuffle plane that hands over spill files: never here.
        """
        return False

    def _note_worker(self, info: dict) -> None:
        """Fold one task's worker info into engine stats (noop by default)."""

    def _note_run(self, seconds: float) -> None:
        """Fold one run's wall-clock into engine stats (noop by default)."""

    def _journal_submit(
        self, job: Job, handle: Any, splits: list[Split], num_partitions: int
    ) -> None:
        """Write-ahead the job spec when journaled (noop by default)."""

    def _journal_finish(self, handle: Any) -> None:
        """Retire a finished job's journal state (noop by default)."""

    def _reduce_scratch_dir(self, handle: Any) -> str | None:
        """Engine-owned scratch root for reduce-side external sorts.

        ``None`` (the default) lets each sorter own a private system
        temp dir; engines that return a directory sweep it themselves,
        so scratch from killed attempts cannot leak past the job.
        """
        return None

    def _durable_spills(self) -> bool:
        """True when map spill files must be fsync'd before publication."""
        return False

    def _run_tasks(self, specs: list[Any]) -> list[Any]:
        raise NotImplementedError


class SerialEngine(Engine):
    """Run every task in-process, one after another (deterministic).

    Of the retry settings (see :class:`Engine`), injected
    crashes/poisons/slow-tasks, retry backoff and the post-hoc attempt
    timeout all apply; worker-kill faults degrade to ordinary task
    failures and hung attempts cannot be preempted (there is no second
    process to kill them from).
    """

    def _run_tasks(self, specs: list[Any]) -> list[Any]:
        if not specs:
            return []
        kind = "map" if isinstance(specs[0], MapTaskSpec) else "reduce"
        tracker = AttemptTracker(kind, len(specs), self.retries.max_attempts, bus=self._bus())
        results: dict[int, Any] = {}
        for index in self._dispatch_order(specs):
            while index not in results:  # a failed attempt re-runs in place
                attempt = tracker.begin_dispatch(index)
                tracker.mark_running(attempt)
                specs[index].attempt = attempt.attempt
                try:
                    output = run_spec(specs[index], self.retries)
                except Exception as exc:  # noqa: BLE001 - task code may raise anything
                    tracker.fail(attempt, exc)  # raises once the task may not run again
                    continue
                tracker.complete(attempt, output)
                results[index] = output
        return [results[index] for index in range(len(specs))]


def choose_engine(
    workload_hint: int | None = None,
    *,
    max_workers: int | None = None,
    trace_sink: Any = None,
) -> Engine:
    """Pick an engine from a workload-size hint (records through the run).

    The single serial/multiprocess crossover, also used by
    :func:`repro.core.runner.auto_pairwise`.
    ``workload_hint`` is the caller's estimate of how many records the
    job pushes through map+shuffle (a scheme's
    ``metrics().communication_records``, or ``len(input_records)``).
    Below :data:`AUTO_SERIAL_MAX_RECORDS` a
    :class:`SerialEngine` is returned — at small scale pool startup and
    job broadcasts dominate; at or above it, a
    :class:`MultiprocessEngine` with ``max_workers``.  ``None`` (unknown
    workload) conservatively picks serial.  ``trace_sink`` is passed
    through to whichever engine is built.
    """
    if workload_hint is not None and workload_hint < 0:
        raise ValueError(f"workload_hint must be >= 0, got {workload_hint}")
    if workload_hint is None or workload_hint < AUTO_SERIAL_MAX_RECORDS:
        return SerialEngine(trace_sink=trace_sink)
    return MultiprocessEngine(max_workers=max_workers, trace_sink=trace_sink)


def _dispose(resources: dict) -> None:
    """Shut down a pooled engine's externals (idempotent; GC-safe).

    Workers go first, then the directories they read and wrote.
    """
    pool = resources.pop("pool", None)
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    for key in ("shmdir", "tmpdir"):
        tmpdir = resources.pop(key, None)
        if tmpdir is not None:
            tmpdir.cleanup()


class MultiprocessEngine(Engine):
    """Fan tasks out over a persistent process pool.

    The pool is created lazily on the first task batch and then reused for
    every later phase and job until :meth:`close` (or garbage collection)
    shuts it down — chained pipeline jobs pay process start-up exactly
    once.  Each job's static parts are broadcast once (see module
    docstring); :attr:`stats` accumulates dispatch metrics across runs.
    ``max_workers=None`` uses the executor default (CPU count); usable as
    a context manager.  ``shuffle_mode`` picks the shuffle data plane
    (see module docstring): ``"direct"`` (default) moves map output
    through attempt-scoped spill files and only manifests cross the
    driver; ``"relay"`` is the legacy plane where the driver gathers and
    forwards encoded chunks.  Outputs and job counters are bit-identical
    either way.  ``data_plane`` picks the broadcast data plane:
    ``"default"`` ships the distributed cache inside every job's
    NPB1-framed broadcast file, which workers map (ndarray payloads are
    read-only views over the one page-cached file), ``"shm"`` writes
    that same file to ``/dev/shm`` instead of the engine's disk temp dir
    (a job whose file does not fit there falls back to disk).  Either
    way a pair function or kernel must not write into a cached
    payload: writing into a contiguous ndarray payload raises.  Where
    ``/dev/shm`` is not a writable directory the engine silently
    downgrades to ``"default"`` (check :attr:`data_plane` after
    construction).  Outputs are bit-identical across data planes too.
    ``trace_sink`` receives the run's structured events (see
    :class:`Engine`).

    ``journal_dir`` (direct mode only) attaches a durable
    :class:`~repro.mapreduce.journal.JobJournal`: job specs, attempt
    transitions and spill manifests are fsync'd to
    ``journal_dir/journal.jsonl``, spill files live beside it and are
    fsync'd before publication, and a driver killed mid-job can be
    resumed with :func:`repro.mapreduce.journal.resume_job` — re-running
    only the map tasks whose outputs didn't survive, bit-identically.
    The retry settings are :class:`Engine`'s; on top of the serial
    engine's, a worker killed by a fault is replaced and an attempt that
    hangs past its timeout is killed with its pool.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        shuffle_mode: str = "direct",
        data_plane: str = "default",
        trace_sink: Any = None,
        journal_dir: str | Path | None = None,
        max_attempts: int = 1,
        task_timeout_seconds: float | None = None,
        retry_backoff_seconds: float = 0.0,
        fault_plan: FaultPlan | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if shuffle_mode not in SHUFFLE_MODES:
            raise ValueError(
                f"shuffle_mode must be one of {SHUFFLE_MODES}, got {shuffle_mode!r}"
            )
        if data_plane not in DATA_PLANES:
            raise ValueError(
                f"data_plane must be one of {DATA_PLANES}, got {data_plane!r}"
            )
        if journal_dir is not None and shuffle_mode != "direct":
            raise ValueError(
                "journal_dir requires shuffle_mode='direct': the journal's "
                "resumable state is the direct plane's spill files, got "
                f"shuffle_mode={shuffle_mode!r}"
            )
        super().__init__(
            trace_sink=trace_sink, max_attempts=max_attempts, fault_plan=fault_plan,
            task_timeout_seconds=task_timeout_seconds, retry_backoff_seconds=retry_backoff_seconds,
        )
        self.max_workers = max_workers
        self._shuffle_mode = shuffle_mode
        if data_plane == "shm" and not shm_available():
            data_plane = "default"  # no /dev/shm here: degrade, don't fail
        self._data_plane = data_plane
        self.stats = EngineStats()
        self._job_seq = 0
        self._journal: JobJournal | None = None
        #: ResumePlan to consume on the next map phase (set by resume_job)
        self._pending_resume: Any = None
        #: (job uid, map task index) -> driver-side replay count
        self._replay_attempts: dict[tuple[str, int], int] = {}
        if journal_dir is not None:
            self._journal = JobJournal(journal_dir, stats=self.stats)
            self.events.subscribe(self._journal.record_event)
        self._resources: dict = {}
        self._finalizer = weakref.finalize(self, _dispose, self._resources)

    @property
    def reduce_slots(self) -> int:
        """Reduce tasks one wave holds: two per worker.

        Workers are ``max_workers`` or the executor's default (the usable
        CPU count).  :class:`~repro.core.pairwise.PairwiseComputation`
        caps its default reducer count here: every extra aggregate
        partition adds a spill segment per (compute task, partition), so
        past the slots more partitions cost dispatches and segment reads
        without adding parallelism.  Two per worker, not one, keeps the
        largest partition small enough that peak memory does not rise.
        """
        workers = self.max_workers or getattr(os, "process_cpu_count", os.cpu_count)() or 1
        return 2 * workers

    @property
    def shuffle_mode(self) -> str:
        """The engine's shuffle data plane (``"direct"`` or ``"relay"``)."""
        return self._shuffle_mode

    @property
    def data_plane(self) -> str:
        """The engine's broadcast data plane (``"default"`` or ``"shm"``).

        Reflects the *effective* plane: an engine built with
        ``data_plane="shm"`` on a box without a writable ``/dev/shm``
        reports ``"default"`` here.
        """
        return self._data_plane

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and remove broadcast files (engine reusable)."""
        _dispose(self._resources)
        journal = self._journal
        if journal is not None:
            # Unfinished journaled jobs keep their spill files — resume
            # needs them — but per-attempt extsort scratch is never
            # salvageable: sweep it so killed attempts cannot leak dirs.
            for shuffle_dir in journal.dir.glob("*-shuffle"):
                for scratch in shuffle_dir.glob("extsort-*"):
                    shutil.rmtree(scratch, ignore_errors=True)
            journal.close()
        super().close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._resources.get("pool")
        if pool is None:
            pool = ProcessPoolExecutor(
                self.max_workers, initializer=worker_init, initargs=(self.retries,)
            )
            self._resources["pool"] = pool
            self.stats.pools_created += 1
        return pool

    def _temp_dir(self, key: str = "tmpdir", **where: str) -> Path:
        """The engine-owned temp dir under ``key``, made on first use.

        ``"tmpdir"`` (on disk) holds broadcast files, spill files and
        extsort scratch; ``"shmdir"`` (on ``/dev/shm``) the shm plane's
        broadcast files.  Both are removed with the pool (:func:`_dispose`).
        """
        tmpdir = self._resources.get(key)
        if tmpdir is None:
            tmpdir = tempfile.TemporaryDirectory(**where)
            self._resources[key] = tmpdir
        return Path(tmpdir.name)

    def _scratch_dir(self) -> Path:
        return self._temp_dir(prefix="repro-engine-")

    # -- engine hooks ----------------------------------------------------------
    def _job_handle(self, job: Job) -> JobRef:
        """Broadcast the job's static parts once; tasks carry a tiny ref.

        The file is NPB1-framed straight from the job's buffers
        (:func:`~repro.mapreduce.serialization.write_encoded`), so
        ndarray payloads are neither joined here nor copied by the
        workers that map it.  On the shm plane the file (and its
        began-marker directory) is written to ``/dev/shm``; if that
        write fails (e.g. ``/dev/shm`` filled up mid-run) the partial
        file is removed and this job's file goes to disk instead.
        """
        self._job_seq += 1
        # Journaled uids must not collide across driver processes: the
        # journal directory outlives drivers by design.
        uid = (
            f"job-{os.getpid()}-{self._job_seq}"
            if self._journal is not None
            else f"job-{self._job_seq}"
        )
        name, path = f"{uid}.pkl", None
        if self._data_plane == "shm":
            try:
                path = self._temp_dir("shmdir", prefix="repro-shm-", dir=SHM_DIR) / name
                written = write_encoded(path, job)
            except OSError:
                if path is not None:
                    path.unlink(missing_ok=True)
                path = None
        if path is None:
            path = self._scratch_dir() / name
            written = write_encoded(path, job)
        path.with_suffix(".began").mkdir()  # attempt-began markers (tasks.marker_path)
        self.stats.jobs_broadcast += 1
        self.stats.broadcast_bytes += written
        return JobRef(uid=uid, path=str(path))

    def _release_job(self, handle: Any) -> None:
        if isinstance(handle, JobRef):
            base = Path(handle.path)
            base.unlink(missing_ok=True)
            # A straggler may still touch its attempt-began marker.  Moving
            # the directory aside first makes a late touch fail with ENOENT
            # (which attempt_marker swallows) instead of refilling the
            # directory rmtree is emptying, which then could not be removed.
            began, tombstone = base.with_suffix(".began"), base.with_suffix(".released")
            try:
                began.rename(tombstone)
            except OSError:  # already gone, or cannot move: remove it in place
                tombstone = began
            shutil.rmtree(tombstone, ignore_errors=True)
            # The job's spill files go with it — including orphans left by
            # lost attempts.
            shutil.rmtree(self._scratch_dir() / f"{handle.uid}-shuffle", ignore_errors=True)

    def _shuffle_dir(self, handle: Any) -> str:
        assert isinstance(handle, JobRef)
        if self._journal is not None:
            # Journaled spills live beside the journal describing them,
            # on storage that outlives this driver process.
            path = self._journal.shuffle_dir(handle.uid)
        else:
            path = self._scratch_dir() / f"{handle.uid}-shuffle"
        path.mkdir(exist_ok=True)
        return str(path)

    def _reduce_scratch_dir(self, handle: Any) -> str | None:
        # Engine-owned scratch root: reduce-side external sorts spill
        # under the job's shuffle dir, so scratch from killed attempts is
        # swept with the job instead of leaking system temp dirs.
        if isinstance(handle, JobRef):
            return self._shuffle_dir(handle)
        return None

    def _durable_spills(self) -> bool:
        # The journal must never reference a spill file the disk doesn't
        # hold: fsync map spills before their manifests are journaled.
        return self._journal is not None

    def _fuses(self, prev: Job, nxt: Job, fuse: bool) -> bool:
        return (
            fuse
            # Relay mode has no spill files to hand over.
            and self._shuffle_mode == "direct"
            # Fused stages publish fuse-kind spill files that cannot be
            # replayed from a map spec; journaled chains run stage by
            # stage so every stage stays independently resumable.
            and self._journal is None
            and fusable(prev, nxt, self.retries.fault_plan)
        )

    def _journal_submit(
        self, job: Job, handle: Any, splits: list[Split], num_partitions: int
    ) -> None:
        if self._journal is not None:
            assert isinstance(handle, JobRef)
            self._journal.submit(handle.uid, job, splits, num_partitions, self.retries)

    def _journal_finish(self, handle: Any) -> None:
        if self._journal is not None and isinstance(handle, JobRef):
            self._journal.retire(handle.uid)

    def _note_worker(self, info: dict) -> None:
        self.stats.worker_pids.add(info["pid"])
        if info["loaded"]:
            self.stats.broadcast_loads += 1
        # A fused reduce task may also have localized the *next* job.
        self.stats.broadcast_loads += info.get("extra_loads", 0)
        self.stats.mmap_reads += info.get("mmap_reads", 0)
        self.stats.bytes_copied += info.get("bytes_copied", 0)
        self.stats.spill_files_damaged += info.get("spills_damaged", 0)

    def _note_run(self, seconds: float) -> None:
        self.stats.run_seconds += seconds

    # -- durability ------------------------------------------------------------
    def _journal_map_result(self, spec: Any, output: Any) -> None:
        """Journal one completed map task's spill manifest and counters."""
        assert self._journal is not None and isinstance(spec.job, JobRef)
        (entries, counts, sizes), counter_dict, _info = output
        self._journal.map_result(
            spec.job.uid, spec.task_index, entries, counts, sizes, counter_dict
        )

    def _recover_spill_corruption(
        self, exc: SpillCorruptionError, spec: Any
    ) -> bool:
        """Hadoop fetch-failure semantics for a corrupt map spill segment.

        A reduce attempt that hit a corrupt or truncated segment names it
        in ``exc.path`` / ``exc.offset``.  The driver — not the reducer —
        owns the fix: quarantine the segment (a post-mortem hard link
        ``<file>.p<partition>.quarantined``; the file itself stays, sibling
        reducers still read their intact segments from it), re-execute the
        producing map task from its original split outside the retry
        budget, and patch this reducer's manifest entry to the fresh file.
        Replayed counters are discarded — the winning attempt already
        contributed them — so job counters stay bit-identical to a
        corruption-free run.  Returns False when the failure isn't
        recoverable this way (unparseable producer, segment not among this
        reducer's inputs, replay budget exhausted); the normal failure
        path then takes over.
        """
        context = self._map_context
        if (
            context is None
            or not isinstance(spec, ReduceTaskSpec)
            or spec.spill_paths is None
        ):
            return False
        damaged = (exc.path, exc.offset)
        located = [(path, offset) for path, _length, offset in spec.spill_paths]
        if damaged not in located:
            return False  # already recovered for a sibling attempt
        parsed = parse_spill_file_name(os.path.basename(exc.path))
        if parsed is None:
            return False
        file_kind, task_index = parsed
        partition = spec.task_index  # a reducer reads its own partition only
        job, handle, splits, num_partitions = context
        if (
            file_kind != "map"
            or not isinstance(handle, JobRef)
            or task_index >= len(splits)
        ):
            return False
        key = (handle.uid, task_index)
        replays = self._replay_attempts.get(key, 0)
        if replays >= num_partitions + 2:
            return False  # persistent re-corruption: surface the error
        self._replay_attempts[key] = replays + 1

        self.stats.spill_corruptions += 1
        try:
            os.link(exc.path, f"{exc.path}.p{partition:05d}.quarantined")
            self.stats.spill_files_quarantined += 1
        except OSError:
            pass  # already linked or gone; the replay still supersedes it
        if self._observing:
            self._emit(
                SpillQuarantined(
                    time=time.monotonic(),
                    path=exc.path,
                    kind=file_kind,
                    task_index=task_index,
                    partition=partition,
                    reason=exc.reason,
                )
            )

        # Attempt numbers above max_attempts cannot collide with any
        # dispatched attempt's files; the replay runs without fault
        # injection (spill faults fire on first attempts only).
        replay_spec = MapTaskSpec(
            job=handle,
            records=splits[task_index].records,
            num_partitions=num_partitions,
            encode=True,
            spill_dir=self._shuffle_dir(handle),
            task_index=task_index,
            attempt=self.retries.max_attempts + self._replay_attempts[key],
            durable_spill=self._durable_spills(),
        )
        entries, _counts, _sizes = replay_map_task(job, replay_spec)
        self.stats.tasks_replayed += 1
        entry = entries[partition]
        if entry is None:
            return False  # pragma: no cover - replay dropped the partition
        spec.spill_paths[located.index(damaged)] = entry
        return True

    def _teardown_pool(self, *, kill: bool = False) -> None:
        """Drop the current pool; ``kill`` terminates workers first.

        Killing is how hung tasks are cancelled: a worker stuck in task
        code never returns on its own, so the driver terminates the
        processes and lets the next :meth:`_ensure_pool` respawn a fresh
        pool (new workers re-localize broadcasts lazily from disk).
        """
        pool = self._resources.pop("pool", None)
        if pool is None:
            return
        if kill:
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)

    def _run_tasks(self, specs: list[Any]) -> list[Any]:
        """Dispatch one phase's tasks until each has one winning attempt.

        A future-per-dispatch loop replaces ``pool.map`` so the driver can
        (a) re-dispatch a failed attempt as the task's next one, (b)
        respawn a broken pool — whether it broke at submit or at
        completion — and re-run only the lost tasks and (c) kill attempts
        that hang past the task timeout.  The :class:`AttemptTracker`
        makes every retry decision.  Invariant: *at most one live attempt
        per task* — a task is re-dispatched only after its previous
        attempt failed, was lost with its pool or was killed for a corrupt
        input, so a future in ``inflight`` always belongs to a task
        without a result.  Results are keyed by task index, so output
        order — and therefore job results — is identical to
        :class:`SerialEngine` whatever the dispatch order.
        """
        if not specs:
            return []
        kind = "map" if isinstance(specs[0], MapTaskSpec) else "reduce"
        limit = self.retries.task_timeout_seconds

        total = len(specs)
        tracker = AttemptTracker(kind, total, self.retries.max_attempts, bus=self._bus())
        order = self._dispatch_order(specs)
        results: dict[int, Any] = {}
        journal = (
            self._journal
            if kind == "map"
            and self._journal is not None
            and getattr(specs[0], "spill_dir", None) is not None
            else None
        )
        resume = None
        if kind == "map" and self._pending_resume is not None:
            resume, self._pending_resume = self._pending_resume, None
        inflight: dict[Future, TaskAttempt] = {}

        def dispatch(index: int) -> None:
            spec = specs[index]
            spec.attempt = tracker.next_attempt[index]
            payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
            self.stats.spec_bytes += len(payload)
            self.stats.tasks_dispatched += 1
            future = self._ensure_pool().submit(run_pickled_spec, payload)
            inflight[future] = tracker.begin_dispatch(index)

        def hung(attempt: TaskAttempt, now: float) -> bool:
            # The slack absorbs dispatch overhead; a retry's backoff is
            # slept inside the attempt and is not hang time.
            backoff = backoff_seconds(
                self.retries.retry_backoff_seconds, kind, attempt.task_index, attempt.attempt
            )
            return now - attempt.started_at > limit + max(1.0, limit) + backoff

        def restart_pool() -> list[int]:
            """Respawn the pool, charge the attempts it lost; return the tasks to re-run.

            An attempt is charged — failed with a :class:`TaskLostError` —
            iff its began-marker exists, i.e. a worker actually started it
            before the pool died.  Queued attempts re-dispatch under the
            same number, so their attempt-pinned faults and retry budget
            are untouched.
            """
            self.stats.pool_restarts += 1
            now = time.monotonic()
            lost = list(inflight.values())
            inflight.clear()
            for attempt in lost:
                tracker.kill(attempt, now=now)
            self._teardown_pool(kill=True)
            for attempt in lost:
                spec = specs[attempt.task_index]
                if isinstance(spec.job, JobRef) and marker_path(
                    spec.job, kind, spec.task_index, attempt.attempt
                ).exists():
                    tracker.fail(
                        attempt, TaskLostError(kind, spec.task_index, attempt.attempt), now=now
                    )
            unfinished = [index for index in order if index not in results]
            self.stats.tasks_relaunched += len(unfinished)
            return unfinished

        if resume is not None:
            # Re-attach the dead run's surviving map outputs: salvaged
            # tasks contribute their journaled manifests and counters
            # verbatim (bit-identical to re-execution), re-journaled
            # under this run's uid; only the rest re-run.
            for index, salvaged in sorted(resume.salvage.items()):
                if index >= total:
                    continue
                entries, counts, sizes, counter_dict = salvaged
                output = (
                    (entries, counts, sizes),
                    counter_dict,
                    {"pid": os.getpid(), "loaded": False},
                )
                results[index] = output
                tracker.completed.add(index)
                self.stats.tasks_resumed += 1
                if journal is not None:
                    self._journal_map_result(specs[index], output)
            self.stats.tasks_replayed += total - len(results)

        pending = [index for index in order if index not in results]
        try:
            while len(results) < total:
                broken = False
                try:
                    for index in pending:
                        dispatch(index)
                    pending = []
                    if not inflight:  # pragma: no cover - defensive
                        raise RuntimeError("engine dispatch lost track of in-flight tasks")
                    done, _ = wait(
                        list(inflight), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
                    )
                    now = time.monotonic()
                    for future, attempt in inflight.items():
                        if attempt.started_at is None and future.running():
                            tracker.mark_running(attempt, now=now)
                    for future in done:
                        exc = future.exception()
                        if isinstance(exc, BrokenProcessPool):
                            broken = True  # stays in flight: restart_pool charges it
                            continue
                        attempt = inflight.pop(future)
                        index = attempt.task_index
                        if exc is None:
                            output = future.result()
                            tracker.complete(attempt, output, now=now)
                            results[index] = output
                            if journal is not None:
                                self._journal_map_result(specs[index], output)
                        elif isinstance(
                            exc, SpillCorruptionError
                        ) and self._recover_spill_corruption(exc, specs[index]):
                            # The reducer's *input* was bad, not the attempt:
                            # the corrupt segment is quarantined, its producing
                            # map attempt replayed, and the spec patched to the
                            # fresh file — kill (not fail) so the reducer's own
                            # retry budget stays untouched.
                            tracker.kill(attempt, now=now)
                            pending.append(index)
                        else:
                            tracker.fail(attempt, exc, now=now)  # raises once spent
                            pending.append(index)
                    if not broken and limit is not None:
                        stuck = [
                            attempt
                            for attempt in inflight.values()
                            if attempt.started_at is not None and hung(attempt, now)
                        ]
                        self.stats.tasks_timed_out += len(stuck)
                        for attempt in stuck:
                            tracker.kill(attempt, timed_out=True, now=now)
                        broken = bool(stuck)
                except BrokenProcessPool:  # a dead pool surfaces at submit too
                    broken = True
                if broken:
                    pending = restart_pool()
        finally:
            # A phase that fails leaves nothing live: stragglers are cancelled.
            now = time.monotonic()
            for future, attempt in inflight.items():
                future.cancel()
                tracker.kill(attempt, now=now)

        return [results[index] for index in range(total)]
