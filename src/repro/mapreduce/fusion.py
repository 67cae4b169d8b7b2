"""Fused job chaining: when a reduce→map boundary may be short-circuited.

When stage i's reduce feeds a stage i+1 whose map phase is
identity-shaped (:func:`fusable`), stage i's reduce tasks partition
their output with stage i+1's partitioner and write its spill files
directly — stage i+1 starts from disk, its identity map phase is elided,
and stage i's records never reach the driver (its
:class:`~repro.mapreduce.job.JobResult` has ``records_elided=True`` and
an empty record list).  The elided map's data-plane counters (map
input/output records and bytes, shuffle volume) are synthesized from the
manifest sums and equal the unfused values exactly; only attempt
bookkeeping (``task_attempts``) differs, since no map attempts run.

This module is the safety predicate's home and nothing else.  Whether an
engine fuses at all is its ``_fuses`` hook and the driver side is the
engine's one stage loop (both in :mod:`repro.mapreduce.runtime`); the
worker side (partition + spill at source, triggered by
``ReduceTaskSpec.next_stage``) is in :mod:`repro.mapreduce.tasks`.
"""

from __future__ import annotations

from .faults import RATES, FaultPlan
from .job import Job, Mapper


def fusable(prev: Job, nxt: Job, plan: FaultPlan | None) -> bool:
    """True when ``nxt``'s map phase can be elided at ``prev``'s reducers.

    Safe exactly when the next job's map phase is a pure identity
    reshuffle: the default :class:`~repro.mapreduce.job.Mapper` map
    (no subclass override, no setup/cleanup hooks) — then partitioning
    the upstream reduce output at source is observationally identical to
    running the map tasks.  An engine fault ``plan`` that could target
    the next job's (elided) map attempts also blocks fusion, so
    injected-fault runs stay bit-identical.
    """
    if prev.reducer is None or nxt.reducer is None or nxt.num_reducers < 1:
        return False
    mapper = nxt.mapper
    if not (
        isinstance(mapper, type)
        and issubclass(mapper, Mapper)
        and mapper.map is Mapper.map
        and mapper.setup is Mapper.setup
        and mapper.cleanup is Mapper.cleanup
    ):
        return False
    return plan is None or not (
        any(getattr(plan, rate) for rate in RATES)
        or any(fault.task_kind in (None, "map") for fault in plan.faults)
    )
