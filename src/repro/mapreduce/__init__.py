"""Local MapReduce runtime: the substrate under the pairwise algorithms.

Reimplements the Hadoop-0.20 contract the paper targets — mappers,
sort/shuffle with deterministic partitioning, reducers, combiners,
distributed cache, counters, job chaining — with serial and multiprocess
executors, plus a block-placement DFS model for locality accounting.
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
from .partitioners import RangePartitioner, is_globally_sorted
from .hdfs import DistributedFileSystem
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
from .pipeline import Pipeline, PipelineResult
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
)
from .serialization import (
    SizedPayload,
    SpillCorruptionError,
    record_size,
)
from .shm import SegmentRef, shm_available
from .shuffle import hash_partition, sort_and_group, stable_hash
from .streaming import StreamingMapper, StreamingProtocolError, StreamingReducer
from .splits import Split, assign_round_robin, split_by_count, split_by_size
from .textio import (
    read_output_dir,
    read_records,
    run_job_on_files,
    write_partitioned,
    write_records,
)

__all__ = [
    "AUTO_SERIAL_MAX_RECORDS",
    "Context",
    "Counters",
    "CrashFault",
    "DATA_PLANES",
    "DEFAULT_RECORDS_PER_SPLIT",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
    "DistributedFileSystem",
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
    "Pipeline",
    "PipelineResult",
    "PoisonFault",
    "PoisonedRecordError",
    "REDUCE_INPUT_GROUPS",
    "REDUCE_INPUT_RECORDS",
    "REDUCE_OUTPUT_RECORDS",
    "RangePartitioner",
    "Reducer",
    "ResumeOutcome",
    "ResumePlan",
    "SHUFFLE_BYTES",
    "SHUFFLE_MODES",
    "SHUFFLE_RECORDS",
    "SegmentRef",
    "SerialEngine",
    "SizedPayload",
    "SlowFault",
    "SpillCorruptionError",
    "Split",
    "StreamingMapper",
    "StreamingProtocolError",
    "StreamingReducer",
    "TaskFailedError",
    "TaskLostError",
    "TaskTimeoutError",
    "WorkerKillFault",
    "assign_round_robin",
    "choose_engine",
    "hash_partition",
    "is_globally_sorted",
    "plan_resume",
    "read_journal",
    "read_output_dir",
    "read_records",
    "record_size",
    "records_from",
    "resume_job",
    "run_job_on_files",
    "shm_available",
    "sort_and_group",
    "sorted_groups",
    "split_by_count",
    "split_by_size",
    "stable_hash",
    "write_partitioned",
    "write_records",
]
