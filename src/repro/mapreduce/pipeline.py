"""The result of a job chain: per-stage results and merged counters.

The paper's generic algorithm is "two consecutive MR jobs" (§4).  A chain
runs through the engine's
:meth:`~repro.mapreduce.runtime.Engine.run_chain` — the same stage loop
that runs a single job — which returns one
:class:`~repro.mapreduce.job.JobResult` per stage;
:class:`PipelineResult` wraps that list with the final records and the
counters merged over all stages.  An engine with a direct shuffle plane
may *fuse* adjacent stages (the upstream reduce tasks write the next
job's spill files at source); a fused stage reports
``records_elided=True`` and an empty record list, its counters are
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .counters import Counters
from .job import JobResult, KeyValue


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
