"""Local MapReduce runtime: the substrate under the pairwise algorithms.

Reimplements the part of the Hadoop-0.20 contract the paper's algorithms
rely on — mappers, sort/shuffle with deterministic partitioning,
reducers, distributed cache, counters, job chaining
(:meth:`Engine.run_chain`, whose stages :class:`PipelineResult` wraps) —
with serial and multiprocess executors.
"""

from .counters import (
    FRAMEWORK_GROUP,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
    Counters,
)
from .extsort import ExternalSorter, sorted_groups
from .faults import (
    CrashFault,
    FaultPlan,
    InjectedCrash,
    InjectedWorkerDeath,
    PoisonedRecordError,
    PoisonFault,
    SlowFault,
    WorkerKillFault,
)
from .journal import (
    JobJournal,
    ResumeOutcome,
    ResumePlan,
    plan_resume,
    read_journal,
    resume_job,
)
from .job import (
    Context,
    IdentityMapper,
    IdentityReducer,
    Job,
    JobResult,
    Mapper,
    Reducer,
    TaskFailedError,
    TaskLostError,
    TaskTimeoutError,
    records_from,
)
from .pipeline import PipelineResult
from .runtime import (
    AUTO_SERIAL_MAX_RECORDS,
    DATA_PLANES,
    DEFAULT_RECORDS_PER_SPLIT,
    DEFAULT_SPILL_THRESHOLD_BYTES,
    SHUFFLE_MODES,
    Engine,
    EngineStats,
    MultiprocessEngine,
    SerialEngine,
    choose_engine,
    shm_available,
)
from .serialization import (
    SizedPayload,
    SpillCorruptionError,
    record_size,
)
from .shuffle import hash_partition, sort_and_group, stable_hash
from .splits import Split, split_by_count

__all__ = [
    "AUTO_SERIAL_MAX_RECORDS",
    "Context",
    "Counters",
    "CrashFault",
    "DATA_PLANES",
    "DEFAULT_RECORDS_PER_SPLIT",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
    "Engine",
    "EngineStats",
    "ExternalSorter",
    "FRAMEWORK_GROUP",
    "FaultPlan",
    "IdentityMapper",
    "IdentityReducer",
    "InjectedCrash",
    "InjectedWorkerDeath",
    "Job",
    "JobJournal",
    "JobResult",
    "MAP_INPUT_RECORDS",
    "MAP_OUTPUT_BYTES",
    "MAP_OUTPUT_RECORDS",
    "Mapper",
    "MultiprocessEngine",
    "PipelineResult",
    "PoisonFault",
    "PoisonedRecordError",
    "REDUCE_INPUT_GROUPS",
    "REDUCE_INPUT_RECORDS",
    "REDUCE_OUTPUT_RECORDS",
    "Reducer",
    "ResumeOutcome",
    "ResumePlan",
    "SHUFFLE_BYTES",
    "SHUFFLE_MODES",
    "SHUFFLE_RECORDS",
    "SerialEngine",
    "SizedPayload",
    "SlowFault",
    "SpillCorruptionError",
    "Split",
    "TaskFailedError",
    "TaskLostError",
    "TaskTimeoutError",
    "WorkerKillFault",
    "choose_engine",
    "hash_partition",
    "plan_resume",
    "read_journal",
    "record_size",
    "records_from",
    "resume_job",
    "shm_available",
    "sort_and_group",
    "sorted_groups",
    "split_by_count",
    "stable_hash",
]
