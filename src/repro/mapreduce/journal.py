"""Durable job journal: driver-crash resumable execution.

PR 2 made *task* attempts fault-tolerant; the driver itself remained a
single point of failure — kill it mid-job and every completed map
output is thrown away, exactly the wasted-work regime the paper's
makespan analysis penalizes on commodity clusters.  This module closes
that gap with a write-ahead journal over the direct shuffle's durable
spill files:

- :class:`JobJournal` — an append-only, fsync'd JSONL file
  (``journal.jsonl``) recording, per job: the pickled job spec
  (``{uid}.spec.pkl``, written atomically before any task runs), every
  control-plane event the engine emits (attempt transitions, spill
  publications, quarantines), one ``map_result`` line per completed map
  task carrying its spill manifest (``[path, payload_bytes, offset]`` per
  non-empty partition), and a ``job_finished`` line on
  success.  Each line is flushed and fsync'd before the engine
  proceeds, so the journal never promises state the disk doesn't hold
  (map spill files are themselves fsync'd before their manifests are
  journaled — ``MapTaskSpec.durable_spill``).
- :func:`plan_resume` — reads a journal tolerantly (a torn final line —
  the driver died mid-append — is dropped, matching the atomic-append
  contract) and computes the resume plan for the most recent unfinished
  job: which map tasks' spill files survived intact (the file still
  holds every journaled segment in full) and which must re-run.
- :func:`resume_job` — rebuilds the engine against the same journal
  directory, seeds the map phase's :class:`AttemptTracker`/results with
  the salvaged manifests, re-runs only the missing map tasks, and runs
  the reduce phase as usual.  Outputs and job counters are bit-identical
  to an uninterrupted run: salvaged tasks contribute their *journaled*
  counters, replayed tasks re-execute deterministically.

The journal lives in its own directory (one per logical job lineage);
journaled engines also place their per-job shuffle directories there, so
spill files and the manifests describing them share a filesystem.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .controlplane.events import AttemptTransition, SpillQuarantined, SpillWritten

if TYPE_CHECKING:  # circular at runtime: runtime.py imports this module
    from .job import Job, JobResult
    from .stats import EngineStats

#: the journal file inside a journal directory
JOURNAL_NAME = "journal.jsonl"

#: journal record types (the "type" field of each JSONL line)
JOB_SUBMITTED = "job_submitted"
MAP_RESULT = "map_result"
JOB_FINISHED = "job_finished"

#: control-plane events worth persisting (attempt lifecycle + data plane)
_EVENT_TYPES = (AttemptTransition, SpillWritten, SpillQuarantined)


def parse_jsonl_tolerant(text: str) -> list[dict]:
    """Parse JSONL, dropping a torn *final* line (interrupted append).

    A record that fails to parse anywhere else is real corruption and
    re-raises — only the tail of the file can legitimately be torn by a
    dying writer under the append-fsync discipline.
    """
    records: list[dict] = []
    lines = [line for line in text.splitlines() if line.strip()]
    for position, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if position == len(lines) - 1:
                break
            raise
    return records


def read_journal(path: str | Path) -> list[dict]:
    """All journal records at ``path``, torn tail dropped."""
    return parse_jsonl_tolerant(Path(path).read_text(encoding="utf-8"))


class JobJournal:
    """Append-only fsync'd JSONL journal for one engine's jobs.

    Writers call :meth:`submit` / :meth:`map_result` / :meth:`finish`
    (and feed :meth:`record_event` to the engine's event bus); every
    append hits the disk before returning.  ``stats`` (when given) gets
    ``journal_events`` incremented per append so the durability overhead
    is observable.
    """

    def __init__(self, journal_dir: str | Path, stats: "EngineStats | None" = None):
        self.dir = Path(journal_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / JOURNAL_NAME
        self._fh: Any = None
        self._stats = stats

    # -- paths an engine and resume share --------------------------------------
    def spec_path(self, uid: str) -> Path:
        """Durable pickled (job, splits, num_partitions) for one job uid."""
        return self.dir / f"{uid}.spec.pkl"

    def shuffle_dir(self, uid: str) -> Path:
        """Where a journaled engine spills this job's shuffle files."""
        return self.dir / f"{uid}-shuffle"

    # -- appending --------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Append one record; flushed and fsync'd before returning."""
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if self._stats is not None:
            self._stats.journal_events += 1

    def submit(self, uid: str, job: "Job", splits: list, num_partitions: int) -> None:
        """Write-ahead record for one job: durable spec pickle + journal line.

        The spec pickle is published atomically (temp + rename + fsync)
        *before* the journal references it, so a journal that names a
        spec guarantees the spec is loadable.
        """
        spec = self.spec_path(uid)
        tmp = str(spec) + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(
                (job, list(splits), num_partitions),
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, spec)
        self.append(
            {
                "type": JOB_SUBMITTED,
                "uid": uid,
                "job": job.name,
                "num_map_tasks": len(splits),
                "num_partitions": num_partitions,
                "spec": spec.name,
            }
        )

    def map_result(
        self,
        uid: str,
        task_index: int,
        entries: list,
        counts: list,
        sizes: list,
        counters: dict,
    ) -> None:
        """One completed map task's spill manifest + counters."""
        self.append(
            {
                "type": MAP_RESULT,
                "uid": uid,
                "task_index": task_index,
                "entries": [list(entry) if entry is not None else None for entry in entries],
                "counts": list(counts),
                "sizes": list(sizes),
                "counters": counters,
            }
        )

    def finish(self, uid: str, *, resumed: bool = False) -> None:
        """Mark one job complete; its journal state is no longer needed."""
        self.append({"type": JOB_FINISHED, "uid": uid, "resumed": resumed})

    def record_event(self, event: Any) -> None:
        """EventBus subscriber persisting the attempt/spill event stream.

        Monotonic timestamps are dropped — they are meaningless across
        driver processes, and resume must not depend on them.
        """
        if isinstance(event, _EVENT_TYPES):
            payload = dataclasses.asdict(event)
            payload.pop("time", None)
            self.append({"type": type(event).__name__, **payload})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- resume planning ------------------------------------------------------------


@dataclass
class ResumePlan:
    """What :func:`plan_resume` found in a journal directory."""

    uid: str
    job_name: str
    spec_path: Path
    num_map_tasks: int
    num_partitions: int
    #: task_index -> (entries, counts, sizes, counters): map tasks whose
    #: journaled spill files all survived intact
    salvage: dict[int, tuple] = field(default_factory=dict)
    #: map tasks whose outputs are missing/incomplete and must re-run
    missing: list[int] = field(default_factory=list)
    #: every unfinished uid in the journal (the target is the last one;
    #: earlier ones are dead runs superseded by the resumed execution)
    open_uids: list[str] = field(default_factory=list)


@dataclass
class ResumeOutcome:
    """What :func:`resume_job` produced."""

    result: "JobResult"
    stats: "EngineStats"
    #: uid of the dead run that was resumed
    uid: str
    tasks_resumed: int
    tasks_replayed: int


def _entries_intact(entries: list) -> bool:
    """True when every entry's file is long enough to hold its segment.

    An entry in any other shape (a journal from before files were
    segmented) is not intact, so its task re-runs.
    """
    from .serialization import SPILL_HEADER_BYTES

    for entry in entries:
        if entry is None:
            continue
        try:
            path, payload_bytes, offset = entry
            if os.path.getsize(path) < offset + SPILL_HEADER_BYTES + payload_bytes:
                return False
        except (ValueError, OSError):
            return False
    return True


def plan_resume(journal_dir: str | Path) -> ResumePlan:
    """Compute the resume plan for the most recent unfinished job.

    Raises ``FileNotFoundError`` when there is no journal (or the
    unfinished job's spec pickle is gone) and ``ValueError`` when every
    journaled job already finished.
    """
    journal_dir = Path(journal_dir)
    path = journal_dir / JOURNAL_NAME
    if not path.exists():
        raise FileNotFoundError(f"no journal at {path}")
    records = read_journal(path)
    submitted: dict[str, dict] = {}
    map_results: dict[str, dict[int, dict]] = {}
    for record in records:
        rtype = record.get("type")
        if rtype == JOB_SUBMITTED:
            submitted[record["uid"]] = record
        elif rtype == MAP_RESULT:
            map_results.setdefault(record["uid"], {})[record["task_index"]] = record
        elif rtype == JOB_FINISHED:
            submitted.pop(record["uid"], None)
    if not submitted:
        raise ValueError(f"nothing to resume: every journaled job in {journal_dir} finished")
    open_uids = list(submitted)
    uid = open_uids[-1]
    head = submitted[uid]
    spec_path = journal_dir / head["spec"]
    if not spec_path.exists():
        raise FileNotFoundError(f"journal names missing spec pickle {spec_path}")
    salvage: dict[int, tuple] = {}
    missing: list[int] = []
    results = map_results.get(uid, {})
    for task_index in range(head["num_map_tasks"]):
        record = results.get(task_index)
        if record is not None and _entries_intact(record["entries"]):
            entries = [
                tuple(entry) if entry is not None else None for entry in record["entries"]
            ]
            salvage[task_index] = (
                entries,
                record["counts"],
                record["sizes"],
                record["counters"],
            )
        else:
            missing.append(task_index)
    return ResumePlan(
        uid=uid,
        job_name=head["job"],
        spec_path=spec_path,
        num_map_tasks=head["num_map_tasks"],
        num_partitions=head["num_partitions"],
        salvage=salvage,
        missing=missing,
        open_uids=open_uids,
    )


def resume_job(
    journal_dir: str | Path,
    *,
    max_workers: int | None = None,
    trace_sink: Any = None,
) -> ResumeOutcome:
    """Resume the most recent unfinished journaled job to completion.

    Rebuilds a journaled :class:`~repro.mapreduce.runtime
    .MultiprocessEngine` over the same directory, re-attaches the dead
    run's surviving map outputs, re-runs only the missing map tasks, and
    runs the reduce phase normally.  The result (records *and* job
    counters) is bit-identical to an uninterrupted run; the meters on the
    returned outcome prove how much map work was salvaged
    (``tasks_resumed``) versus re-executed (``tasks_replayed``).

    On success the dead run — and any older unfinished runs in the same
    journal, all superseded by this completion — is marked finished and
    its spill files and spec pickle are removed.
    """
    from .runtime import MultiprocessEngine  # runtime imports journal at top level

    plan = plan_resume(journal_dir)
    with open(plan.spec_path, "rb") as fh:
        job, splits, num_partitions = pickle.load(fh)
    engine = MultiprocessEngine(
        max_workers=max_workers, journal_dir=journal_dir, trace_sink=trace_sink
    )
    try:
        engine._pending_resume = plan
        del num_partitions  # Engine.run re-derives it from job.num_reducers
        result = engine.run(job, splits=splits)
        # The resumed execution supersedes every unfinished run on record:
        # retire them (journal first, then artifacts, so a crash between
        # the two leaks files rather than resurrecting a finished job).
        journal = engine._journal
        for uid in plan.open_uids:
            journal.finish(uid, resumed=True)
        for uid in plan.open_uids:
            shutil.rmtree(journal.shuffle_dir(uid), ignore_errors=True)
            journal.spec_path(uid).unlink(missing_ok=True)
    finally:
        engine.close()
    return ResumeOutcome(
        result=result,
        stats=engine.stats,
        uid=plan.uid,
        tasks_resumed=engine.stats.tasks_resumed,
        tasks_replayed=engine.stats.tasks_replayed,
    )
