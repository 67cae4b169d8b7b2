"""Job chaining: feed one job's output records into the next job's input.

The paper's generic algorithm is "two consecutive MR jobs" (§4); real
deployments chain more (a preprocessing job producing the element files,
the two pairwise jobs, an application job consuming the result lists).
:class:`Pipeline` runs such a chain on any engine and aggregates counters
per stage and overall.

A pipeline *is* a call to the engine's
:meth:`~repro.mapreduce.runtime.Engine.run_chain` — the same stage loop
that runs a single job — so an engine with a direct shuffle plane may
*fuse* adjacent stages: when the next job's map phase is identity-shaped,
the upstream reduce tasks write the next job's spill files at source and
the intermediate records never round-trip through the driver.  Fused
stages report ``records_elided=True`` and an empty record list; counters
are unaffected.  Pass ``fuse=False`` to :meth:`Pipeline.run` to keep
every boundary unfused — e.g. when per-stage records are inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .counters import Counters
from .job import Job, JobResult, KeyValue
from .runtime import Engine, SerialEngine


@dataclass
class PipelineResult:
    """Final records plus per-stage results and merged counters."""

    stages: list[JobResult] = field(default_factory=list)

    @property
    def records(self) -> list[KeyValue]:
        if not self.stages:
            raise ValueError("pipeline produced no stages")
        return self.stages[-1].records

    @property
    def counters(self) -> Counters:
        merged = Counters()
        for stage in self.stages:
            merged.merge(stage.counters)
        return merged

    def stage_counters(self, index: int) -> Counters:
        return self.stages[index].counters


class Pipeline:
    """An ordered chain of jobs executed on a single engine.

    Because all stages share one engine, a
    :class:`~repro.mapreduce.runtime.MultiprocessEngine` keeps its worker
    pool alive across the whole chain: process start-up is paid once and
    each stage's static parts are broadcast to every worker exactly once
    (not once per task).  The engine's owner controls its lifetime; use
    the pipeline as a context manager only when it should close the
    engine on exit.
    """

    def __init__(self, jobs: Sequence[Job], engine: Engine | None = None):
        if not jobs:
            raise ValueError("pipeline needs at least one job")
        self.jobs = list(jobs)
        self.engine = engine or SerialEngine()

    def close(self) -> None:
        """Release the engine's resources (worker pool, broadcast files)."""
        self.engine.close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        input_records: Sequence[KeyValue],
        *,
        num_map_tasks: int | None = None,
        fuse: bool = True,
    ) -> PipelineResult:
        """Run all jobs; stage i+1 consumes stage i's output records.

        A stage's :class:`~repro.mapreduce.job.TaskFailedError` is
        re-raised annotated with ``stage_index`` and ``job_name``, so a
        failure deep in a chain names the job that died; the engine (and
        its worker pool) stays usable for the next ``run``.

        ``fuse`` forwards to the engine's
        :meth:`~repro.mapreduce.runtime.Engine.run_chain`: ``True``
        (default) lets a direct-shuffle engine fuse adjacent stages where
        safe, ``False`` fuses none (every stage's records materialized in
        its :class:`~repro.mapreduce.job.JobResult`).
        """
        stages = self.engine.run_chain(
            self.jobs, input_records, num_map_tasks=num_map_tasks, fuse=fuse
        )
        return PipelineResult(stages=stages)
