"""Deterministic fault injection: seeded, reproducible failure scenarios.

The paper's premise is that MapReduce makes pairwise computation practical
on *commodity* clusters — machines that crash, stall, and lose tasks —
because the framework re-executes failed and lost attempts (Hadoop 0.20's
fault model).  To test and benchmark that
machinery the engines need failures that are **reproducible**: a
:class:`FaultPlan` describes exactly which task attempts crash, hang, or
die, either as an explicit fault list or as seeded per-task draws, and the
same plan produces the same failure schedule on every run and on both
engines.

A plan rides ``job.config["fault_plan"]`` (it is picklable, so it reaches
pool workers with the job broadcast) and the engines consult it at three
points:

- :meth:`FaultPlan.fire` — start of every task attempt: raise
  (:class:`CrashFault`), sleep (:class:`SlowFault`), or kill the hosting
  worker process (:class:`WorkerKillFault`);
- :meth:`FaultPlan.poisons` — per map record: raise mid-stream
  (:class:`PoisonFault`), modelling a corrupt input record;
- attempt numbering is **global** (driver re-dispatches after a lost
  worker count as attempts), so a fault pinned to ``attempts=(1,)`` fires
  exactly once even when the first attempt died with its process.

Rate-based plans draw per ``(kind, task_index)`` from a keyed blake2b
hash — no shared RNG state, so the draw is independent of execution order
and identical across serial and pooled engines.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CrashFault",
    "FaultPlan",
    "InjectedCrash",
    "InjectedWorkerDeath",
    "PoisonFault",
    "PoisonedRecordError",
    "SlowFault",
    "WorkerKillFault",
]


class InjectedCrash(RuntimeError):
    """A :class:`CrashFault` fired (ordinary task failure, retryable)."""


class InjectedWorkerDeath(RuntimeError):
    """A :class:`WorkerKillFault` fired outside a pool worker.

    Inside a pool worker the process exits instead (the driver sees
    ``BrokenProcessPool``); the serial engine degrades the kill to this
    ordinary exception so the same plan runs on both engines.
    """


class PoisonedRecordError(RuntimeError):
    """A :class:`PoisonFault` fired on its record (retryable)."""


def _matches(selector: int | None, value: int) -> bool:
    return selector is None or selector == value


@dataclass(frozen=True)
class _Fault:
    """Common selector fields: which task attempts a fault applies to.

    ``task_kind`` is ``"map"``, ``"reduce"`` or ``None`` (both);
    ``task_index`` selects one task (``None`` = every task);
    ``attempts`` is a tuple of 1-based global attempt numbers (``None`` =
    every attempt — the fault is then *permanent* and no retry budget can
    absorb it).
    """

    task_kind: str | None = None
    task_index: int | None = None
    attempts: tuple[int, ...] | None = (1,)

    def applies(self, kind: str, task_index: int, attempt: int) -> bool:
        """True when this fault selects the given task attempt."""
        if self.task_kind is not None and self.task_kind != kind:
            return False
        if not _matches(self.task_index, task_index):
            return False
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class CrashFault(_Fault):
    """Raise :class:`InjectedCrash` at the start of matching attempts."""


@dataclass(frozen=True)
class SlowFault(_Fault):
    """Sleep ``seconds`` at the start of matching attempts.

    Short sleeps model stragglers; sleeps well past the task timeout
    model hangs (timeout/kill territory).
    """

    seconds: float = 0.5


@dataclass(frozen=True)
class WorkerKillFault(_Fault):
    """Kill the hosting worker process at the start of matching attempts.

    In a pool worker: ``os._exit(1)`` — the driver observes a broken pool
    and must respawn it and re-run the lost tasks.  In-process (serial
    engine): raises :class:`InjectedWorkerDeath` instead.
    """


@dataclass(frozen=True)
class PoisonFault(_Fault):
    """Raise :class:`PoisonedRecordError` when a map task reaches
    ``record_index`` (its 0-based ordinal within the task's split)."""

    record_index: int = 0


def _draw(seed: int, kind: str, task_index: int, salt: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by task identity."""
    digest = hashlib.blake2b(
        f"{seed}:{kind}:{task_index}:{salt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure schedule for one job.

    Two layers compose:

    - ``faults`` — explicit fault objects for targeted scenarios
      ("kill reduce task 3 on its first attempt");
    - seeded rates — ``crash_rate`` / ``slow_rate`` / ``kill_rate``
      draw per ``(kind, task_index)`` whether that task's *first* attempt
      crashes, stalls for ``slow_seconds``, or dies; retries (attempt ≥ 2)
      run clean, so any plan built from rates alone is absorbed by a
      ``max_attempts >= 2`` budget.  ``corrupt_rate`` / ``truncate_rate``
      draw per ``(kind, task_index, partition)`` whether that segment of
      a *published* spill file gets a payload byte flipped, or the file is
      cut short inside it (losing every later segment too), after the
      atomic rename — modelling silent disk/network corruption under the
      writer's feet; the integrity layer must detect it
      (:class:`~repro.mapreduce.serialization.SpillCorruptionError`) and
      the driver must replay the producing map attempt.

    The plan holds no mutable state and is safe to share across tasks,
    attempts, and processes.
    """

    faults: Sequence[_Fault] = ()
    seed: int = 0
    crash_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.5
    kill_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for name in ("crash_rate", "slow_rate", "kill_rate", "corrupt_rate", "truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if math.isnan(self.slow_seconds) or self.slow_seconds < 0:
            raise ValueError(f"slow_seconds must be >= 0, got {self.slow_seconds}")

    # -- queries the engines make ------------------------------------------------
    def fire(
        self,
        kind: str,
        task_index: int,
        attempt: int,
        *,
        in_worker: bool = False,
    ) -> None:
        """Apply attempt-level faults for one task attempt (or no-op).

        Slow faults sleep, then any kill fault takes the process down (or
        raises in-process), then any crash fault raises.  Called by the
        engines at the start of every attempt.
        """
        delay = 0.0
        kill = False
        crash: _Fault | None = None
        for fault in self.faults:
            if not fault.applies(kind, task_index, attempt):
                continue
            if isinstance(fault, SlowFault):
                delay = max(delay, fault.seconds)
            elif isinstance(fault, WorkerKillFault):
                kill = True
            elif isinstance(fault, CrashFault):
                crash = fault
        if attempt == 1:
            if self.slow_rate and _draw(self.seed, kind, task_index, "slow") < self.slow_rate:
                delay = max(delay, self.slow_seconds)
            if self.kill_rate and _draw(self.seed, kind, task_index, "kill") < self.kill_rate:
                kill = True
            if self.crash_rate and _draw(self.seed, kind, task_index, "crash") < self.crash_rate:
                crash = CrashFault(task_kind=kind, task_index=task_index)
        if delay > 0:
            time.sleep(delay)
        if kill:
            if in_worker:
                os._exit(1)
            raise InjectedWorkerDeath(
                f"injected worker death: {kind} task {task_index} attempt {attempt}"
            )
        if crash is not None:
            raise InjectedCrash(
                f"injected crash: {kind} task {task_index} attempt {attempt}"
            )

    def poisons(
        self, kind: str, task_index: int, attempt: int, record_index: int
    ) -> bool:
        """True when a :class:`PoisonFault` targets this record."""
        return any(
            isinstance(fault, PoisonFault)
            and fault.record_index == record_index
            and fault.applies(kind, task_index, attempt)
            for fault in self.faults
        )

    def spill_fault(
        self, kind: str, task_index: int, attempt: int, partition: int
    ) -> str | None:
        """Damage mode (``"corrupt"``/``"truncate"``) for one partition's
        segment of a just-published spill file, or ``None``.

        Like the attempt-level rates, spill damage fires only on first
        attempts: retries and driver-side replays model re-reading from a
        healthy replica, so recovery always converges.
        Draws are keyed per partition, so each of a task's segments is
        drawn independently (a truncation also takes the segments after it).
        """
        if attempt != 1:
            return None
        if self.corrupt_rate and (
            _draw(self.seed, kind, task_index, f"corrupt:p{partition}") < self.corrupt_rate
        ):
            return "corrupt"
        if self.truncate_rate and (
            _draw(self.seed, kind, task_index, f"truncate:p{partition}") < self.truncate_rate
        ):
            return "truncate"
        return None

    def describe(self) -> str:
        """One-line summary for logs and bench reports."""
        rate_names = ("crash_rate", "slow_rate", "kill_rate", "corrupt_rate", "truncate_rate")
        parts = [f"{len(self.faults)} explicit fault(s)"]
        for name in rate_names:
            rate = getattr(self, name)
            if rate:
                parts.append(f"{name}={rate:g}")
        if any(getattr(self, name) for name in rate_names):
            parts.append(f"seed={self.seed}")
        return ", ".join(parts)
