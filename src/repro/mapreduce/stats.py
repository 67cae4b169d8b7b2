"""Driver-side engine metrics and shuffle bookkeeping dataclasses."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineStats:
    """Driver-side dispatch metrics for a pooled engine.

    Kept out of job counters on purpose: job results stay bit-identical
    between engines while the perf harness still gets exact byte
    accounting.  ``broadcast_loads`` counts one-shot job localizations
    (at most one per worker per job); ``worker_pids`` the distinct workers
    that executed tasks; ``run_seconds`` accumulates wall-clock over
    ``Engine.run`` / ``Engine.run_chain`` calls, fused or not (the trace
    round-trip tests compare it to the makespan of the emitted timeline).

    The fault-tolerance metrics meter the driver's recovery work:
    ``pool_restarts`` (worker pool respawned after a dead worker or hang
    kill), ``tasks_relaunched`` (task dispatches re-issued after a pool
    restart), ``tasks_timed_out`` (hung attempts the driver killed —
    post-hoc attempt timeouts are job counters instead).

    The shuffle data-plane meters quantify what the driver actually
    touched: ``driver_bytes`` is the intermediate (map-output) bytes that
    crossed the driver process — full encoded chunks on the relay path,
    only pickled manifests on the direct path (final job output returned
    to the caller is not shuffle traffic and is not counted);
    ``spill_files_written`` counts the direct path's spill files (one
    per producing task with output, whatever the partition count),
    ``spill_bytes_written`` their payload bytes; ``fused_stages`` the
    reduce→map short-circuits taken by fused chaining.

    The zero-copy meters quantify the ``data_plane="shm"`` payoff:
    ``shm_segments``/``shm_bytes`` count the shared-memory segments the
    driver materialized and their payload bytes (one per distinct cache
    object per machine — jobs sharing a cache share a segment);
    ``shm_segments_revived`` segments rebuilt after a pool crash.
    ``mmap_reads`` and ``bytes_copied`` aggregate the workers'
    :data:`~repro.mapreduce.serialization.io_meter` deltas: chunk files
    mapped instead of slurped, and payload bytes that *were* copied into
    private process memory on the read path (eager file reads, broadcast
    localizations, driver-relayed chunks — shm attaches and mmap reads
    count zero).

    The durability meters track journaling and integrity recovery:
    ``journal_events`` counts fsync'd journal appends; ``tasks_resumed``
    map tasks whose journaled spill output was re-attached instead of
    re-run by ``resume_job``; ``tasks_replayed`` map attempts re-executed
    driver-side (missing outputs on resume, corrupt spill files during a
    run); ``spill_corruptions`` integrity failures detected on the read
    path, one per damaged segment; ``spill_files_quarantined`` damaged
    segments hard-linked aside for post-mortem; ``spill_files_damaged``
    segments the fault plan's ``corrupt_rate`` / ``truncate_rate``
    actually made unreadable (write-side injection count, so tests can
    assert every injected corruption was detected).

    The replication meters record the last pairwise run's distance from
    the Afrati/Ullman lower bound: ``replication_factor_achieved`` is the
    measured copies-per-element (replicas emitted / v),
    ``replication_lower_bound`` the floor ``(v−1)/(capacity−1)`` at the
    scheme's own working-set capacity, and ``shuffle_bytes_vs_bound`` the
    measured shuffle bytes over the per-leg byte floor — cached runs ship
    ids instead of payloads, so values below 1.0 mean the run beat the
    naive floor.  Zero means "no pairwise run metered yet".
    """

    pools_created: int = 0
    jobs_broadcast: int = 0
    broadcast_bytes: int = 0
    spec_bytes: int = 0
    tasks_dispatched: int = 0
    broadcast_loads: int = 0
    worker_pids: set = field(default_factory=set)
    pool_restarts: int = 0
    tasks_relaunched: int = 0
    tasks_timed_out: int = 0
    driver_bytes: int = 0
    spill_files_written: int = 0
    spill_bytes_written: int = 0
    fused_stages: int = 0
    shm_segments: int = 0
    shm_bytes: int = 0
    shm_segments_revived: int = 0
    mmap_reads: int = 0
    bytes_copied: int = 0
    journal_events: int = 0
    tasks_resumed: int = 0
    tasks_replayed: int = 0
    spill_corruptions: int = 0
    spill_files_quarantined: int = 0
    spill_files_damaged: int = 0
    replication_factor_achieved: float = 0.0
    replication_lower_bound: float = 0.0
    shuffle_bytes_vs_bound: float = 0.0
    run_seconds: float = 0.0

    @property
    def bytes_pickled(self) -> int:
        """Everything the driver pickled to dispatch work (broadcast + specs)."""
        return self.broadcast_bytes + self.spec_bytes


@dataclass
class ShuffleState:
    """One stage's gathered shuffle input, ready for the reduce phase.

    Produced by the stage's own map tasks or — across a fused boundary —
    by the previous stage's reducers.  ``gathered[p]`` holds partition
    ``p``'s data in producing-task order: raw records
    (``mode="memory"``), encoded chunks (``"relay"``), or
    ``(path, payload_bytes, offset)`` manifest entries (``"direct"``).  The
    task-reported per-partition record/byte sums drive the shuffle
    counters and the reduce-side spill decision in every mode.
    """

    mode: str
    gathered: list[list]
    part_records: list[int]
    part_bytes: list[int]
