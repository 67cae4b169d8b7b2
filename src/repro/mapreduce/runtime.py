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
tolerance** mirrors Hadoop 0.20: per-attempt wall-clock budgets,
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

import dataclasses
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
    TaskCost,
    dispatch_order,
)

# Counter names, spill threshold and reduce-spill
# counters moved out with the control-plane/worker split; re-exported
# here because they are part of this module's long-standing surface.
from .controlplane.attempts import (  # noqa: F401  (re-exports)
    TASK_ATTEMPTS,
    TASK_FAILURES,
    TASK_RETRIES,
    TASKS_TIMED_OUT,
)
from .counters import (
    FRAMEWORK_GROUP,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
    Counters,
)
from .fusion import fusable
from .job import Job, JobResult, KeyValue, TaskFailedError
from .journal import JobJournal
from .serialization import SpillCorruptionError
from .shm import SegmentHost, shm_available
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

#: Default records per map split when neither ``num_map_tasks`` nor the
#: job's ``config["records_per_split"]`` is given.  ``num_map_tasks``
#: always wins over the per-split size: when the caller fixes the task
#: count, records are carved into exactly that many near-equal splits and
#: this constant is ignored.
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

#: broadcast data planes a :class:`MultiprocessEngine` supports:
#: ``"default"`` ships the distributed cache inside the per-job broadcast
#: pickle (each worker unpickles its own copy); ``"shm"`` materializes it
#: once per machine in POSIX shared memory and workers attach read-only
#: zero-copy views (see :mod:`repro.mapreduce.shm`).
DATA_PLANES = ("default", "shm")

class Engine:
    """Shared orchestration: split planning, shuffle accounting, result.

    ``trace_sink`` (e.g. a
    :class:`~repro.mapreduce.controlplane.JsonlTraceSink`) subscribes to
    the engine's :attr:`events` bus and is closed with the engine.
    """

    #: how map output reaches reduce tasks; pooled engines override
    _shuffle_mode = "memory"

    def __init__(self, *, trace_sink: Any = None):
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
        one split is planned per ``job.config["records_per_split"]``
        records (default :data:`DEFAULT_RECORDS_PER_SPLIT`), at least
        one.  An explicit ``num_map_tasks`` always overrides the
        per-split size.
        """
        if (input_records is None) == (splits is None):
            raise ValueError("provide exactly one of input_records or splits")
        return self._run_stages([job], input_records, splits, num_map_tasks, None)[0]

    def run_chain(
        self,
        jobs: Sequence[Job],
        input_records: Sequence[KeyValue],
        *,
        num_map_tasks: int | None = None,
        fuse: bool | None = None,
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
        since no map attempts run).  ``fuse=None`` (the default) and
        ``fuse=True`` both fuse where safe; ``fuse=False`` never does, so
        every stage's records are materialized.
        """
        return self._run_stages(list(jobs), input_records, None, num_map_tasks, fuse)

    def _run_stages(
        self,
        jobs: list[Job],
        records: Sequence[KeyValue] | None,
        splits: list[Split] | None,
        num_map_tasks: int | None,
        fuse: bool | None,
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
                        splits = self._plan_splits(job, records, num_map_tasks)
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

    def _plan_splits(
        self,
        job: Job,
        input_records: Sequence[KeyValue],
        num_map_tasks: int | None,
    ) -> list[Split]:
        if num_map_tasks is None:
            per_split = int(
                job.config.get("records_per_split", DEFAULT_RECORDS_PER_SPLIT)
            )
            if per_split < 1:
                raise ValueError(f"records_per_split must be >= 1, got {per_split}")
            num_map_tasks = max(1, len(input_records) // per_split)
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
        map_outputs = self._run_tasks(map_specs, job)
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
        outputs = self._run_tasks(reduce_specs, job)
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

    def _fuses(self, prev: Job, nxt: Job, fuse: bool | None) -> bool:
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

    def _run_tasks(self, specs: list[Any], job: Job) -> list[Any]:
        raise NotImplementedError


class SerialEngine(Engine):
    """Run every task in-process, one after another (deterministic).

    Fault-tolerance semantics are the worker-side subset: injected
    crashes/poisons/slow-tasks, retry backoff and the post-hoc attempt
    timeout all apply; worker-kill faults degrade to ordinary task
    failures and hung attempts cannot be preempted (there is no second
    process to kill them from).
    """

    def _run_tasks(self, specs: list[Any], job: Job) -> list[Any]:
        if not specs:
            return []
        kind = "map" if isinstance(specs[0], MapTaskSpec) else "reduce"
        tracker = AttemptTracker(kind, len(specs), job, bus=self._bus())
        results: dict[int, Any] = {}
        for index in self._dispatch_order(specs):
            attempt = tracker.begin_dispatch(index)
            tracker.mark_running(attempt)
            try:
                output = run_spec(specs[index])
            except Exception:
                tracker.fail(attempt)
                raise
            tracker.complete(attempt, worker_pid=output[2].get("pid"))
            results[index] = output
        return [results[index] for index in range(len(specs))]


def choose_engine(
    workload_hint: int | None = None,
    *,
    max_workers: int | None = None,
    trace_sink: Any = None,
    data_plane: str | None = None,
    journal_dir: str | Path | None = None,
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
    through to whichever engine is built; ``data_plane`` only to a pooled
    engine (the serial engine runs in-process, where the cache is already
    shared by definition).
    ``journal_dir`` forces a pooled engine regardless of the hint — the
    durable journal rides the direct shuffle's spill files, which only
    the :class:`MultiprocessEngine` has.
    """
    if workload_hint is not None and workload_hint < 0:
        raise ValueError(f"workload_hint must be >= 0, got {workload_hint}")
    if journal_dir is None and (
        workload_hint is None or workload_hint < AUTO_SERIAL_MAX_RECORDS
    ):
        return SerialEngine(trace_sink=trace_sink)
    return MultiprocessEngine(
        max_workers=max_workers,
        data_plane=data_plane or "default",
        trace_sink=trace_sink,
        journal_dir=journal_dir,
    )


def _dispose(resources: dict) -> None:
    """Shut down a pooled engine's externals (idempotent; GC-safe).

    Order matters: workers go first so nothing is attached to a shared
    segment when the host unlinks it.
    """
    pool = resources.pop("pool", None)
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    segments = resources.pop("segments", None)
    if segments is not None:
        segments.close()
    tmpdir = resources.pop("tmpdir", None)
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
    ``"default"`` ships the distributed cache inside every job broadcast
    (each worker unpickles its own copy), ``"shm"`` materializes it once
    per machine in POSIX shared memory (workers attach read-only
    zero-copy views — see :mod:`repro.mapreduce.shm`); where shared
    memory is unavailable the engine silently downgrades to ``"default"``
    (check :attr:`data_plane` after construction).  Outputs are
    bit-identical across data planes too.  ``trace_sink`` receives the
    run's structured events (see :class:`Engine`).

    ``journal_dir`` (direct mode only) attaches a durable
    :class:`~repro.mapreduce.journal.JobJournal`: job specs, attempt
    transitions and spill manifests are fsync'd to
    ``journal_dir/journal.jsonl``, spill files live beside it and are
    fsync'd before publication, and a driver killed mid-job can be
    resumed with :func:`repro.mapreduce.journal.resume_job` — re-running
    only the map tasks whose outputs didn't survive, bit-identically.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        shuffle_mode: str = "direct",
        data_plane: str = "default",
        trace_sink: Any = None,
        journal_dir: str | Path | None = None,
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
        super().__init__(trace_sink=trace_sink)
        self.max_workers = max_workers
        self._shuffle_mode = shuffle_mode
        if data_plane == "shm" and not shm_available():
            data_plane = "default"  # no POSIX shm here: degrade, don't fail
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
    def shuffle_mode(self) -> str:
        """The engine's shuffle data plane (``"direct"`` or ``"relay"``)."""
        return self._shuffle_mode

    @property
    def data_plane(self) -> str:
        """The engine's broadcast data plane (``"default"`` or ``"shm"``).

        Reflects the *effective* plane: an engine built with
        ``data_plane="shm"`` on a box without working POSIX shared memory
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
                max_workers=self.max_workers, initializer=worker_init
            )
            self._resources["pool"] = pool
            self.stats.pools_created += 1
        return pool

    def _broadcast_dir(self) -> Path:
        tmpdir = self._resources.get("tmpdir")
        if tmpdir is None:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-engine-")
            self._resources["tmpdir"] = tmpdir
        return Path(tmpdir.name)

    def _segment_host(self) -> SegmentHost:
        host = self._resources.get("segments")
        if host is None:
            host = SegmentHost()
            self._resources["segments"] = host
        return host

    # -- engine hooks ----------------------------------------------------------
    def _job_handle(self, job: Job) -> JobRef:
        """Broadcast the job's static parts once; tasks carry a tiny ref.

        On the shm plane a job with a distributed cache is split: the
        cache goes to a per-machine shared segment (one per distinct
        cache object — jobs sharing a cache dict share the segment) and
        the broadcast pickle ships only the cache-less head plus the
        :class:`~repro.mapreduce.shm.SegmentRef`.  If materialization
        fails (e.g. ``/dev/shm`` filled up mid-run) the job falls back to
        the default plane on its own.
        """
        self._job_seq += 1
        # Journaled uids must not collide across driver processes: the
        # journal directory outlives drivers by design.
        uid = (
            f"job-{os.getpid()}-{self._job_seq}"
            if self._journal is not None
            else f"job-{self._job_seq}"
        )
        cache_ref = None
        if self._data_plane == "shm" and job.cache:
            try:
                cache_ref, created = self._segment_host().materialize(uid, job.cache)
            except OSError:
                cache_ref = None
            else:
                if created:
                    self.stats.shm_segments += 1
                    self.stats.shm_bytes += created
                job = dataclasses.replace(job, cache={})
        path = self._broadcast_dir() / f"{uid}.pkl"
        data = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(data)
        path.with_suffix(".began").mkdir()  # attempt-began markers (tasks.marker_path)
        self.stats.jobs_broadcast += 1
        self.stats.broadcast_bytes += len(data)
        return JobRef(uid=uid, path=str(path), cache_ref=cache_ref)

    def _release_job(self, handle: Any) -> None:
        if isinstance(handle, JobRef):
            if handle.cache_ref is not None:
                self._segment_host().release(handle.uid)
            base = Path(handle.path)
            base.unlink(missing_ok=True)
            shutil.rmtree(base.with_suffix(".began"), ignore_errors=True)
            # The job's spill files go with it — including orphans left by
            # lost attempts.
            shutil.rmtree(base.parent / f"{handle.uid}-shuffle", ignore_errors=True)

    def _shuffle_dir(self, handle: Any) -> str:
        assert isinstance(handle, JobRef)
        if self._journal is not None:
            # Journaled spills live beside the journal describing them,
            # on storage that outlives this driver process.
            path = self._journal.shuffle_dir(handle.uid)
        else:
            path = Path(handle.path).parent / f"{handle.uid}-shuffle"
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

    def _fuses(self, prev: Job, nxt: Job, fuse: bool | None) -> bool:
        return (
            fuse is not False
            # Relay mode has no spill files to hand over.
            and self._shuffle_mode == "direct"
            # Fused stages publish fuse-kind spill files that cannot be
            # replayed from a map spec; journaled chains run stage by
            # stage so every stage stays independently resumable.
            and self._journal is None
            and fusable(prev, nxt)
        )

    def _journal_submit(
        self, job: Job, handle: Any, splits: list[Split], num_partitions: int
    ) -> None:
        if self._journal is not None:
            assert isinstance(handle, JobRef)
            self._journal.submit(handle.uid, job, splits, num_partitions)

    def _journal_finish(self, handle: Any) -> None:
        if self._journal is not None and isinstance(handle, JobRef):
            # Journal first, then artifacts: a crash between the two
            # leaks files rather than resurrecting a finished job.
            self._journal.finish(handle.uid)
            shutil.rmtree(
                self._journal.shuffle_dir(handle.uid), ignore_errors=True
            )
            self._journal.spec_path(handle.uid).unlink(missing_ok=True)

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

        # Attempt numbers above job.max_attempts cannot collide with any
        # worker-side attempt's files; the replay runs without fault
        # injection (spill faults fire on first attempts only).
        replay_spec = MapTaskSpec(
            job=handle,
            records=splits[task_index].records,
            num_partitions=num_partitions,
            encode=True,
            spill_dir=self._shuffle_dir(handle),
            task_index=task_index,
            first_attempt=job.max_attempts + self._replay_attempts[key],
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

    def _run_tasks(self, specs: list[Any], job: Job) -> list[Any]:
        """Dispatch one phase's tasks with recovery.

        A future-per-dispatch loop replaces ``pool.map`` so the driver can
        (a) respawn a broken pool and re-run only the lost in-flight
        tasks and (b) kill attempts that hang past the task timeout.  The
        :class:`AttemptTracker` owns attempt numbering and lost-attempt
        charging.  Invariant: *at most one live attempt per task* — a task
        is re-dispatched only after its previous attempt was lost with its
        pool or killed for a corrupt input, so a future in ``inflight``
        always belongs to a task without a result.  Results are keyed by
        task index, so output order — and therefore job results — is
        identical to :class:`SerialEngine` whatever the dispatch order.
        """
        if not specs:
            return []
        kind = "map" if isinstance(specs[0], MapTaskSpec) else "reduce"
        timeout = job.config.get("task_timeout_seconds")
        limit = float(timeout) if timeout is not None else None

        total = len(specs)
        tracker = AttemptTracker(kind, total, job, bus=self._bus())
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
        inflight: dict[Future, int] = {}
        attempts: dict[Future, Any] = {}  # Future -> TaskAttempt
        started_at: dict[Future, float] = {}
        budget: dict[Future, float] = {}

        def dispatch(index: int) -> None:
            spec = specs[index]
            spec.first_attempt = tracker.next_attempt[index]
            payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
            self.stats.spec_bytes += len(payload)
            self.stats.tasks_dispatched += 1
            future = self._ensure_pool().submit(run_pickled_spec, payload)
            inflight[future] = index
            attempts[future] = tracker.begin_dispatch(index)
            if limit is not None:
                # A started attempt may legitimately consume the whole
                # remaining retry budget worker-side (each local retry gets
                # its own post-hoc window) before the driver declares it
                # hung; the slack absorbs dispatch/pickling overhead.
                remaining = job.max_attempts - tracker.next_attempt[index] + 1
                budget[future] = limit * remaining + max(1.0, limit)

        def restart_pool() -> None:
            """Respawn the pool; re-dispatch and charge unfinished tasks.

            A task is charged one lost attempt iff its current attempt's
            began-marker exists — i.e. a worker actually started it before
            the pool died.  Queued tasks re-dispatch on the same attempt
            number, so their attempt-pinned faults and retry budget are
            untouched.
            """
            self.stats.pool_restarts += 1
            now = time.monotonic()
            for future in inflight:
                tracker.kill(attempts[future], now=now)
            charged: set[int] = set()
            for index in range(total):
                if index in results or index in charged:
                    continue
                handle = specs[index].job
                if isinstance(handle, JobRef) and marker_path(
                    handle, kind, specs[index].task_index, tracker.next_attempt[index]
                ).exists():
                    charged.add(index)
            for index in charged:
                tracker.charge_lost(index)
            inflight.clear()
            attempts.clear()
            started_at.clear()
            budget.clear()
            self._teardown_pool(kill=True)
            host = self._resources.get("segments")
            if host is not None:
                # A crashed worker's resource tracker may have swept
                # segments it attached; rebuild them under their original
                # names so already-pickled refs in re-dispatched specs
                # keep resolving.
                self.stats.shm_segments_revived += host.revive()
            for index in order:
                if index in results:
                    continue
                if tracker.exhausted(index):
                    raise tracker.lost_error(index, specs[index].task_index)
                self.stats.tasks_relaunched += 1
                dispatch(index)

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

        for index in order:
            if index in results:
                continue
            dispatch(index)

        while len(results) < total:
            if not inflight:  # pragma: no cover - defensive
                raise RuntimeError("engine dispatch lost track of in-flight tasks")
            done, _ = wait(
                list(inflight), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            for future in list(inflight):
                if future not in started_at and future.running():
                    started_at[future] = now
                    tracker.mark_running(attempts[future], now=now)
            broken = False
            try:
                for future in done:
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        broken = True  # stays in flight: restart_pool kills it
                        continue
                    index = inflight.pop(future)
                    if exc is None:
                        output = future.result()
                        results[index] = output
                        tracker.complete(
                            attempts[future], now=now, worker_pid=output[2].get("pid")
                        )
                        if journal is not None:
                            self._journal_map_result(specs[index], output)
                        continue
                    if isinstance(
                        exc, SpillCorruptionError
                    ) and self._recover_spill_corruption(exc, specs[index]):
                        # The reducer's *input* was bad, not the attempt:
                        # the corrupt segment is quarantined, its producing
                        # map attempt replayed, and the spec patched to
                        # the fresh file — kill (not fail) so the
                        # reducer's own retry budget stays untouched.
                        tracker.kill(attempts[future], now=now)
                        dispatch(index)
                        continue
                    # The task's one attempt in flight failed for good:
                    # fail the job like the serial engine would.
                    tracker.fail(attempts[future], now=now)
                    for straggler in inflight:
                        straggler.cancel()
                        tracker.kill(attempts[straggler], now=now)
                    raise exc

                if not broken and limit is not None:
                    hung_futures = {
                        future
                        for future, begun in started_at.items()
                        if future in inflight and now - begun > budget[future]
                    }
                    if hung_futures:
                        self.stats.tasks_timed_out += len(hung_futures)
                        for future in hung_futures:
                            tracker.kill(attempts[future], timed_out=True, now=now)
                        restart_pool()
                        continue
            except BrokenProcessPool:
                broken = True
            if broken:
                restart_pool()

        return [results[index] for index in range(total)]
