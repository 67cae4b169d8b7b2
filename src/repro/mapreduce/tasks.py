"""Worker-side task execution: specs, the job registry, map/reduce attempts.

This is the code that runs *inside* an executor — in-process for
:class:`~repro.mapreduce.runtime.SerialEngine`, in pool workers for
:class:`~repro.mapreduce.runtime.MultiprocessEngine`.  The driver builds
:class:`MapTaskSpec`/:class:`ReduceTaskSpec` objects, pickles them, and
ships them to :func:`run_pickled_spec`; everything orchestration-side
(dispatch, recovery) stays in the engines, everything
decision-side (attempt numbering, whether a task runs again) in
:mod:`repro.mapreduce.controlplane`.

**One-shot job broadcast.**  A job's static parts — mapper/reducer
factories, config, and the distributed cache holding the dataset — are
pickled *once per job* to a broadcast file; each pool worker loads and
caches it on first touch (once per worker, like Hadoop's
DistributedCache localization).  Task specs carry a tiny :class:`JobRef`
instead of the job, which is what keeps per-task pickling proportional
to the records alone.  A worker keeps a loaded job — cache included —
only while the driver does: loading a new job first drops every
registry entry whose broadcast file the driver has unlinked, so the
payload stores resident in a worker are bounded by the jobs in flight.

**Attempt semantics.**  A spec runs exactly one attempt, the one the
driver dispatched (``spec.attempt``), under the control plane's
:func:`~repro.mapreduce.controlplane.attempts.run_attempt` — retry
backoff, injected faults and the post-hoc wall-clock check all apply to
it, and a failure propagates to the driver, which decides whether the
task runs again.  The settings are the engine's
:class:`~repro.mapreduce.controlplane.attempts.TaskRetries`: passed to
:func:`run_spec` in-process, handed to each pool worker once by
:func:`worker_init`, so no job or task carries them.  Workers touch an
*attempt-began marker* file at the start of every attempt so the driver
can tell, after a pool death, which tasks actually started (charged one
lost attempt) and which were still queued (re-dispatched free).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .controlplane.attempts import TaskRetries, attempt_tag, run_attempt
from .counters import (
    FRAMEWORK_GROUP,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    Counters,
)
from .extsort import ExternalSorter, sorted_groups
from .faults import FaultPlan, PoisonedRecordError
from .job import Context, Job, KeyValue
from .serialization import (
    decode_records,
    encode_records,
    io_meter,
    record_size,
)
from .shm import attach_object, detach_object
from .shuffle import iter_spill_records, partition_with_sizes, sort_and_group
from .spill import spill_partitions

#: Reduce partitions whose accounted byte size (per-partition sums
#: reported by map tasks) exceeds this threshold are sorted via the
#: external merge sort with the threshold as its memory budget, instead of
#: an in-memory ``sorted()``.  Override per job with
#: ``config["spill_threshold_bytes"]``.
DEFAULT_SPILL_THRESHOLD_BYTES = 64 * 1024 * 1024

#: Framework counters for the reduce-side spill path (deterministic across
#: engines: both decide from the same per-partition sums and threshold).
REDUCE_SPILLED_RECORDS = "reduce_spilled_records"
REDUCE_SPILL_RUNS = "reduce_spill_runs"


@dataclass(frozen=True)
class JobRef:
    """Driver-side handle to a broadcast job: workers load it lazily."""

    uid: str
    path: str
    #: shm data plane: the job's distributed cache lives in this shared
    #: segment (a :class:`~repro.mapreduce.shm.SegmentRef`) instead of the
    #: broadcast pickle; ``None`` on the default plane
    cache_ref: Any | None = None


@dataclass
class MapTaskSpec:
    """One map task: its record slice plus a handle to the shared job.

    ``job`` is either the :class:`Job` itself (serial engine) or a
    :class:`JobRef` pointing at the engine's broadcast file (pooled
    engine) — the spec no longer carries the job's cache/config, which is
    what keeps per-task pickling proportional to the records alone.
    """

    job: Any
    records: list[KeyValue]
    num_partitions: int
    #: pre-encode partition chunks worker-side (pooled engine only)
    encode: bool = False
    #: direct shuffle: write encoded partitions as one spill file under
    #: this directory and return a manifest instead of the chunks
    spill_dir: str | None = None
    #: position of this task within its phase (fault plans key on it)
    task_index: int = 0
    #: the 1-based global attempt this dispatch runs; it names the spill
    #: file and keys the fault plan
    attempt: int = 1
    #: fsync spill files before publish (journaled engines: the journal
    #: must never promise a manifest the page cache hasn't flushed)
    durable_spill: bool = False


@dataclass(frozen=True)
class NextStage:
    """Fused chaining: where a reduce task spills its output for job i+1.

    ``job`` is the *next* job's broadcast ref (the worker resolves it to
    get the partitioner — and localizes its cache as a side effect);
    ``num_partitions``/``spill_dir`` describe the next job's shuffle.
    """

    job: Any
    num_partitions: int
    spill_dir: str


@dataclass
class ReduceTaskSpec:
    """One reduce task: its partition as records, chunks, or spill segments."""

    job: Any
    records: list[KeyValue] | None
    chunks: list[bytes] | None
    #: direct shuffle: this partition's ``(path, payload_bytes, offset)``
    #: segment in each producing task's spill file, in task order (order
    #: fixes the arrival-order tie-break — see iter_spill_records)
    spill_paths: list[tuple[str, int, int]] | None = None
    #: map-reported record count of the partition (REDUCE_INPUT_RECORDS;
    #: with spill paths the records are never counted driver-side)
    num_records: int = 0
    #: accounted partition size (map-reported sums) driving the spill path
    partition_bytes: int = 0
    task_index: int = 0
    #: the 1-based global attempt this dispatch runs; it names the fused
    #: spill file and the external-sort scratch directory
    attempt: int = 1
    #: when set, partition + spill this task's output for the next job
    #: (the fused reduce→map short-circuit) instead of returning records
    next_stage: NextStage | None = None
    #: engine-owned directory for this task's external-sort runs; when
    #: None the sorter owns a system tempdir (serial engine).  Pooled
    #: engines point it at the job's shuffle directory so a worker killed
    #: mid-merge leaks nothing outside the job's scratch space.
    scratch_dir: str | None = None


# -- worker-side job registry -------------------------------------------------
#: jobs this worker has loaded from broadcast files, keyed by JobRef.uid,
#: each with the ref it was loaded through
_WORKER_JOBS: dict[str, tuple[JobRef, Job]] = {}
_WORKER_JOB_CAP = 8

#: True inside pool worker processes (set by the initializer).  Injected
#: worker-kill faults only take the process down when this is set; the
#: serial engine degrades them to ordinary task failures.
_IS_POOL_WORKER = False

#: the pool's engine retry settings (set by the initializer)
_WORKER_RETRIES = TaskRetries()


#: how often a pool worker checks that its driver is still alive
_PARENT_POLL_SECONDS = 0.2


def worker_init(retries: TaskRetries) -> None:
    """Pool initializer: start every worker with an empty job registry.

    ``retries`` are the engine's settings, the same for every task the
    worker will run.

    With the ``fork`` start method workers would otherwise inherit
    whatever the driver process had resident; clearing keeps the
    load-once-per-worker accounting honest.  A daemon thread also ends
    the worker once its driver is gone: a SIGKILLed driver never shuts
    its pool down, and the orphan would otherwise wait on its call queue
    forever.
    """
    global _IS_POOL_WORKER, _WORKER_RETRIES
    _IS_POOL_WORKER = True
    _WORKER_RETRIES = retries
    _WORKER_JOBS.clear()
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), name="parent-watch", daemon=True
    ).start()


def _exit_with_parent(parent: int) -> None:
    """Poll until this process is re-parented (its driver died), then exit."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def resolve_job(handle: Any) -> tuple[Job, dict]:
    """Turn a spec's job handle into the actual Job (loading at most once).

    Returns ``(job, info)`` where ``info`` records the executing pid and
    whether this call localized the broadcast (i.e. the one-shot cache
    broadcast happened here).  The driver folds ``info`` into
    :class:`~repro.mapreduce.runtime.EngineStats`, never into job
    counters.

    On the shm data plane the ref carries a ``cache_ref`` and the
    broadcast pickle ships *without* the cache; the cache is attached
    from the shared segment here — its ndarray payloads come back as
    read-only views over the one per-machine copy, so only the (small)
    broadcast head counts as copied bytes.
    """
    if isinstance(handle, Job):
        return handle, {"pid": os.getpid(), "loaded": False}
    entry = _WORKER_JOBS.get(handle.uid)
    if entry is not None:
        return entry[1], {"pid": os.getpid(), "loaded": False}
    _forget_released_jobs()  # before the load: never two stores where one will do
    with open(handle.path, "rb") as fh:
        data = fh.read()
    io_meter.bytes_copied += len(data)
    job = pickle.loads(data)
    if handle.cache_ref is not None:
        job.cache = attach_object(handle.cache_ref)
    _WORKER_JOBS[handle.uid] = (handle, job)
    return job, {"pid": os.getpid(), "loaded": True}


def _forget_released_jobs() -> None:
    """Make room for one more job: drop what the driver released, then the oldest.

    The driver unlinks a job's broadcast file when it releases the job
    (``_release_job``), so a registry entry whose file is gone can never
    be asked for again.  The cap only bounds what is genuinely in
    flight (a long chain: its jobs are released together when it ends).
    """

    def forget(uid: str) -> None:
        ref, _job = _WORKER_JOBS.pop(uid)
        if ref.cache_ref is not None:
            detach_object(ref.cache_ref)

    for uid, (ref, _job) in list(_WORKER_JOBS.items()):
        if not os.path.exists(ref.path):
            forget(uid)
    while len(_WORKER_JOBS) >= _WORKER_JOB_CAP:
        forget(next(iter(_WORKER_JOBS)))


def _with_io_delta(info: dict, mark: tuple[int, int]) -> dict:
    """Fold this task's io-meter delta into its worker info dict.

    The driver sums the deltas into :class:`EngineStats` (``mmap_reads``,
    ``bytes_copied``); per-task deltas rather than absolute meter values
    so retried dispatches and long-lived workers never double-count.
    """
    mmap_reads, bytes_copied = io_meter.since(mark)
    return {**info, "mmap_reads": mmap_reads, "bytes_copied": bytes_copied}


def marker_path(handle: JobRef, kind: str, task_index: int, attempt: int) -> Path:
    """Attempt-began marker: proves to the driver an attempt ran at all.

    Workers touch it at the start of every attempt, in the marker
    directory the driver makes with the job's broadcast and removes with
    the job (a straggler outliving its job touches into a directory that
    is gone and leaves nothing).  When the pool dies, the driver charges
    a lost attempt only to tasks whose current attempt's marker exists —
    queued tasks that never started are re-dispatched free, exactly like
    Hadoop re-queues (rather than fails) tasks from a lost TaskTracker.
    """
    return Path(handle.path).with_suffix(".began") / f"{kind}.{task_index}.{attempt}"


def attempt_marker(handle: Any, kind: str, task_index: int):
    """Worker-side marker writer for pooled specs (None for in-process)."""
    if not isinstance(handle, JobRef):
        return None

    def mark(attempt: int) -> None:
        try:
            marker_path(handle, kind, task_index, attempt).touch()
        except OSError:  # pragma: no cover - marker loss only skews charging
            pass

    return mark


def execute_map_task(spec: MapTaskSpec, retries: TaskRetries) -> tuple[tuple, dict, dict]:
    """Run the dispatched attempt of one map task.

    Returns ``((partitions, partition_records, partition_bytes),
    counters, info)`` where ``partitions`` holds manifest entries when
    ``spec.spill_dir`` is set (direct shuffle), encoded chunks when only
    ``spec.encode`` is set (relay), raw record lists otherwise.
    """
    mark = io_meter.snapshot()
    job, info = resolve_job(spec.job)
    (partitions, counts, sizes), counters = run_attempt(
        "map",
        retries,
        lambda: _map_attempt(job, spec, retries.fault_plan),
        task_index=spec.task_index,
        attempt=spec.attempt,
        marker=attempt_marker(spec.job, "map", spec.task_index),
        in_worker=_IS_POOL_WORKER,
    )
    if spec.spill_dir is not None:
        partitions, damaged = spill_partitions(
            partitions,
            counts,
            spec.spill_dir,
            "map",
            spec.task_index,
            spec.attempt,
            plan=retries.fault_plan,
            durable=spec.durable_spill,
        )
        if damaged:
            info = {**info, "spills_damaged": damaged}
    elif spec.encode:
        partitions = [encode_records(part) for part in partitions]
    return (partitions, counts, sizes), counters, _with_io_delta(info, mark)


def _map_attempt(job: Job, spec: MapTaskSpec, plan: FaultPlan | None) -> tuple[tuple, dict]:
    """One attempt of a map task (fresh mapper + context)."""
    counters = Counters()
    context = Context(counters, cache=job.cache, config=job.config)
    mapper = job.mapper()
    mapper.setup(context)
    for ordinal, (key, value) in enumerate(spec.records):
        if plan is not None and plan.poisons("map", spec.task_index, spec.attempt, ordinal):
            raise PoisonedRecordError(
                f"poisoned record {ordinal} in map task {spec.task_index} "
                f"(attempt {spec.attempt})"
            )
        counters.increment(FRAMEWORK_GROUP, MAP_INPUT_RECORDS)
        mapper.map(key, value, context)
    mapper.cleanup(context)
    output = context.drain()
    counters.increment(FRAMEWORK_GROUP, MAP_OUTPUT_RECORDS, len(output))

    if spec.num_partitions == 0:  # map-only job: single pseudo-partition
        total = sum(record_size(k, v) for k, v in output)
        counters.increment(FRAMEWORK_GROUP, MAP_OUTPUT_BYTES, total)
        return ([output], [len(output)], [total]), counters.as_dict()

    # The partitioned records *are* the map output; one record_size pass
    # serves both MAP_OUTPUT_BYTES and the shuffle volume.
    partitions, sizes = partition_with_sizes(
        output, spec.num_partitions, job.partitioner
    )
    counters.increment(FRAMEWORK_GROUP, MAP_OUTPUT_BYTES, sum(sizes))
    counts = [len(part) for part in partitions]
    return (partitions, counts, sizes), counters.as_dict()


def execute_reduce_task(spec: ReduceTaskSpec, retries: TaskRetries) -> tuple[Any, dict, dict]:
    """Run the dispatched attempt of one reduce task over its (unsorted) partition.

    Input comes from spill files (direct shuffle), driver-relayed chunks,
    or raw records (serial).  Every attempt reads its input afresh, so a
    retry of an attempt that died mid-merge sees a complete read of it.
    With ``spec.next_stage`` set
    (fused chaining) the attempt's output is partitioned for the
    next job and spilled at source; the ``(entries, counts, sizes)``
    manifest a direct-shuffle map task returns comes back instead of the
    records.
    """
    mark = io_meter.snapshot()
    job, info = resolve_job(spec.job)
    if spec.spill_paths is not None:
        records: Iterable[KeyValue] = iter_spill_records(spec.spill_paths)
    elif spec.chunks is not None:
        # Relayed chunks crossed the driver and arrived as private
        # bytes inside this spec's pickle — copied by definition.
        io_meter.bytes_copied += sum(len(chunk) for chunk in spec.chunks)
        records = [record for chunk in spec.chunks for record in decode_records(chunk)]
    else:
        records = spec.records or []

    output, counters = run_attempt(
        "reduce",
        retries,
        lambda: _reduce_attempt(
            job,
            records,
            spec.num_records,
            spec.partition_bytes,
            scratch=_attempt_scratch(spec),
        ),
        task_index=spec.task_index,
        attempt=spec.attempt,
        marker=attempt_marker(spec.job, "reduce", spec.task_index),
        in_worker=_IS_POOL_WORKER,
    )
    if spec.next_stage is not None:
        stage = spec.next_stage
        next_job, next_info = resolve_job(stage.job)
        partitions, sizes = partition_with_sizes(
            output, stage.num_partitions, next_job.partitioner
        )
        counts = [len(part) for part in partitions]
        entries, _damaged = spill_partitions(
            partitions,
            counts,
            stage.spill_dir,
            "fuse",
            spec.task_index,
            spec.attempt,
        )
        if next_info["loaded"]:
            info = {**info, "extra_loads": info.get("extra_loads", 0) + 1}
        output = (entries, counts, sizes)
    return output, counters, _with_io_delta(info, mark)


def _attempt_scratch(spec: ReduceTaskSpec) -> str | None:
    """Per-attempt external-sort directory under the engine's scratch dir.

    Attempt-scoped (same tag discipline as spill files) so a retried
    merge never collides with a dead attempt's half-written runs.
    """
    if spec.scratch_dir is None:
        return None
    return os.path.join(
        spec.scratch_dir, f"extsort-reduce-{spec.task_index:05d}-{attempt_tag(spec.attempt)}"
    )


def _reduce_attempt(
    job: Job,
    records: Iterable[KeyValue],
    num_records: int,
    partition_bytes: int,
    *,
    scratch: str | None = None,
) -> tuple[list[KeyValue], dict]:
    """One attempt of a reduce task.

    ``records`` may be a list (serial/relay) or a fresh spill-file stream
    (direct shuffle); ``num_records`` is the map-reported partition count,
    so the counter never requires materializing the stream.
    """
    counters = Counters()
    context = Context(counters, cache=job.cache, config=job.config)
    assert job.reducer is not None  # guarded by Job validation
    reducer = job.reducer()
    reducer.setup(context)
    counters.increment(FRAMEWORK_GROUP, REDUCE_INPUT_RECORDS, num_records)

    threshold = int(
        job.config.get("spill_threshold_bytes", DEFAULT_SPILL_THRESHOLD_BYTES)
    )
    sorter: ExternalSorter | None = None
    if partition_bytes > threshold:
        # Partition beyond the spill threshold: external merge sort with
        # the threshold as memory budget.  Deterministic and identical to
        # the in-memory path (same ordering + stable arrival-order ties).
        sorter = ExternalSorter(memory_budget=max(1, threshold), spill_dir=scratch)
        sorter.add_all(records)
        groups = sorted_groups(sorter)
    else:
        groups = sort_and_group(records)

    try:
        for key, values in groups:
            counters.increment(FRAMEWORK_GROUP, REDUCE_INPUT_GROUPS)
            reducer.reduce(key, values, context)
    finally:
        if sorter is not None:
            counters.increment(
                FRAMEWORK_GROUP, REDUCE_SPILLED_RECORDS, sorter.spilled_records
            )
            counters.increment(FRAMEWORK_GROUP, REDUCE_SPILL_RUNS, sorter.num_runs)
            sorter.close()
    reducer.cleanup(context)
    output = context.drain()
    counters.increment(FRAMEWORK_GROUP, REDUCE_OUTPUT_RECORDS, len(output))
    return output, counters.as_dict()


def replay_map_task(job: Job, spec: MapTaskSpec) -> tuple[list, list, list]:
    """Driver-side re-execution of one map attempt for corruption recovery.

    When a reducer trips over a corrupt spill file, the fix is Hadoop's
    fetch-failure move: re-run the *producing map*, not the reducer.  This
    runs a single clean attempt in the driver process, outside the retry
    budget (recovery work is not charged to the task) and outside fault
    injection (the replay models re-reading from a healthy replica), and
    republishes the spill file under ``spec.attempt`` — an attempt
    number past any the retry budget could have used, so the fresh file
    never collides with the damaged one.  The attempt's counters are
    discarded: the original successful attempt's were already merged, and
    recovery must leave job counters bit-identical.

    Returns ``(entries, counts, sizes)`` for the replayed task.
    """
    (partitions, counts, sizes), _counters = _map_attempt(job, spec, None)
    assert spec.spill_dir is not None
    entries, _damaged = spill_partitions(
        partitions,
        counts,
        spec.spill_dir,
        "map",
        spec.task_index,
        spec.attempt,
        durable=spec.durable_spill,
    )
    return entries, counts, sizes


def run_spec(spec: Any, retries: TaskRetries) -> Any:
    """Dispatch one spec to its executor (shared by serial and workers)."""
    if isinstance(spec, MapTaskSpec):
        return execute_map_task(spec, retries)
    return execute_reduce_task(spec, retries)


def run_pickled_spec(payload: bytes) -> Any:
    """Worker entry point: specs arrive pre-pickled by the driver.

    The driver pickles specs itself (instead of letting the executor do
    it) so :class:`~repro.mapreduce.runtime.EngineStats` can meter exactly
    what crossed the process boundary at zero extra cost.
    """
    return run_spec(pickle.loads(payload), _WORKER_RETRIES)
