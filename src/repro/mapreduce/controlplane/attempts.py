"""Task-lifecycle state machine and the one retry decision.

Every dispatch of a task is a :class:`TaskAttempt` walking the Hadoop
attempt lifecycle::

    PENDING ──> DISPATCHED ──> RUNNING ──> SUCCEEDED
                    │             ├──────> FAILED
                    │             ├──────> KILLED      (pool torn down)
                    │             └──────> TIMED_OUT   (over the timeout)
                    └──(pool died before start)──> KILLED

The driver decides, the worker runs.  Workers run :func:`run_attempt`:
exactly the attempt the driver dispatched, with no loop.  Drivers (both
engines) hold an :class:`AttemptTracker` per phase.  It is the only place
that decides whether a task runs again: it numbers attempts, charges
failed and lost ones against ``max_attempts``, raises the task's one
:class:`~repro.mapreduce.job.TaskFailedError` when the budget is gone,
writes the retry counters into the winning attempt's output, and emits
every transition to the engine's event bus.  Attempt numbering is
*global* per task — a failed, timed-out or lost attempt is followed by
the next number — so attempt-pinned injected faults never re-fire.  A
task has at most one live (non-terminal) attempt at a time.

An engine's retry settings are one :class:`TaskRetries`, built and
range-checked by the engine's constructor; nothing else sets them.

This module is engine-agnostic by design: it must not import
:mod:`repro.mapreduce.runtime` (see ``tests/test_layering.py``).
"""

from __future__ import annotations

import math
import time
from concurrent.futures.process import _RemoteTraceback
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, TYPE_CHECKING

from ..counters import FRAMEWORK_GROUP
from ..faults import FaultPlan, _draw
from ..job import TaskFailedError, TaskTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventBus

#: Framework counter: failed and lost attempts of winning tasks (0 per
#: task on a clean run), so retry storms show up in job counters.
TASK_RETRIES = "task_retries"
#: Framework counter: total attempts used by winning tasks (1 per task
#: on a clean run; retries and lost attempts raise it).
TASK_ATTEMPTS = "task_attempts"
#: Framework counter: attempts that failed the post-hoc wall-clock check
#: (attempt finished but over ``task_timeout_seconds``).  Driver-side
#: hang kills are metered in ``EngineStats.tasks_timed_out`` instead.
TASKS_TIMED_OUT = "tasks_timed_out"


@dataclass(frozen=True)
class TaskRetries:
    """An engine's task-retry settings, checked once when it is built.

    ``max_attempts`` is Hadoop's ``mapred.map.max.attempts``: a failed
    task re-runs from scratch up to that many times (1 fails fast).
    ``task_timeout_seconds`` is the per-attempt wall-clock budget
    (``mapred.task.timeout``; ``None`` disables it): an attempt over it
    fails with :class:`~repro.mapreduce.job.TaskTimeoutError`, and the
    pooled engine kills an attempt that never returns.
    ``retry_backoff_seconds`` is the base delay between attempts (0
    disables it; see :func:`backoff_seconds`).  ``fault_plan`` is a
    :class:`~repro.mapreduce.faults.FaultPlan` injected into every task.
    """

    max_attempts: int = 1
    task_timeout_seconds: float | None = None
    retry_backoff_seconds: float = 0.0
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        # Comparisons with nan are false, so nan fails every range below.
        attempts, timeout = self.max_attempts, self.task_timeout_seconds
        backoff, real = self.retry_backoff_seconds, (int, float)
        if not (isinstance(attempts, int) and attempts >= 1):
            raise ValueError(f"max_attempts must be an int >= 1, got {attempts!r}")
        if timeout is not None and not (isinstance(timeout, real) and 0 < timeout < math.inf):
            raise ValueError(f"task_timeout_seconds must be finite and > 0, got {timeout!r}")
        if not (isinstance(backoff, real) and 0 <= backoff < math.inf):
            raise ValueError(f"retry_backoff_seconds must be finite and >= 0, got {backoff!r}")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(f"fault_plan must be a FaultPlan, got {self.fault_plan!r}")


def attempt_tag(attempt: int) -> str:
    """Canonical tag naming one dispatch attempt: ``a<N>``.

    This string is baked into on-disk spill-file names
    (``{kind}-{task:05d}-{tag}.spill``, one file per producing dispatch —
    see :func:`repro.mapreduce.spill.spill_file_path`) so that a
    re-dispatch can never collide with an earlier attempt's files.  The
    format is load-bearing: changing it orphans nothing at runtime (names
    only need to be unique within a job) but breaks any tooling that
    parses scratch directories, so it is locked by a test.
    """
    if attempt < 1:
        raise ValueError(f"attempt numbers are 1-based, got {attempt}")
    return f"a{attempt}"


class TaskState(str, Enum):
    """Lifecycle states of one task attempt."""

    PENDING = "PENDING"
    DISPATCHED = "DISPATCHED"
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    KILLED = "KILLED"
    TIMED_OUT = "TIMED_OUT"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {
    TaskState.SUCCEEDED,
    TaskState.FAILED,
    TaskState.KILLED,
    TaskState.TIMED_OUT,
}

#: Legal state transitions.  DISPATCHED may die without ever being seen
#: RUNNING (queued task lost with its pool), and a running attempt can
#: reach any terminal state.
_TRANSITIONS: dict[TaskState, set[TaskState]] = {
    TaskState.PENDING: {TaskState.DISPATCHED},
    TaskState.DISPATCHED: {TaskState.RUNNING, *_TERMINAL},
    TaskState.RUNNING: set(_TERMINAL),
}


@dataclass
class TaskAttempt:
    """One dispatch of one task, walking the lifecycle state machine."""

    kind: str  # "map" | "reduce"
    task_index: int
    attempt: int  # 1-based global attempt number
    state: TaskState = TaskState.PENDING
    dispatched_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    worker_pid: int | None = None

    @property
    def tag(self) -> str:
        return attempt_tag(self.attempt)

    @property
    def duration(self) -> float | None:
        """Seconds from observed start (or dispatch) to finish, if done."""
        if self.finished_at is None:
            return None
        begun = self.started_at if self.started_at is not None else self.dispatched_at
        return None if begun is None else self.finished_at - begun

    def transition(self, state: TaskState, now: float) -> None:
        allowed = _TRANSITIONS.get(self.state, set())
        if state not in allowed:
            raise ValueError(
                f"illegal transition {self.state.value} -> {state.value} for "
                f"{self.kind} task {self.task_index} attempt {self.attempt}"
            )
        self.state = state
        if state is TaskState.DISPATCHED:
            self.dispatched_at = now
        elif state is TaskState.RUNNING:
            self.started_at = now
        elif state in _TERMINAL:
            self.finished_at = now


class AttemptTracker:
    """Driver-side attempt bookkeeping for one phase's task batch.

    Engine-agnostic: the engine owns futures/processes; the tracker owns
    *decisions* — attempt numbering, the retry budget, the task's one
    failure — and narrates every transition to the event bus.  Both
    :class:`~repro.mapreduce.runtime.SerialEngine` and
    :class:`~repro.mapreduce.runtime.MultiprocessEngine` run their phases
    through one of these.
    """

    def __init__(
        self,
        kind: str,
        num_tasks: int,
        max_attempts: int,
        *,
        bus: "EventBus | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.kind = kind
        self.num_tasks = num_tasks
        self.max_attempts = max_attempts
        self._bus = bus
        self._clock = clock
        #: next 1-based attempt number to dispatch, per task index
        self.next_attempt: dict[int, int] = {i: 1 for i in range(num_tasks)}
        #: errors of each task's failed and lost attempts, oldest first
        self.causes: dict[int, list[BaseException]] = {i: [] for i in range(num_tasks)}
        self.completed: set[int] = set()
        self.history: list[TaskAttempt] = []

    # -- event plumbing --------------------------------------------------------
    def _emit(self, attempt: TaskAttempt, now: float) -> None:
        if self._bus is not None:
            from .events import AttemptTransition

            self._bus.emit(
                AttemptTransition(
                    time=now,
                    kind=attempt.kind,
                    task_index=attempt.task_index,
                    attempt=attempt.attempt,
                    state=attempt.state.value,
                    worker_pid=attempt.worker_pid,
                )
            )

    def _move(self, attempt: TaskAttempt, state: TaskState, now: float | None) -> None:
        now = self._clock() if now is None else now
        attempt.transition(state, now)
        self._emit(attempt, now)

    # -- lifecycle -------------------------------------------------------------
    def begin_dispatch(self, index: int, *, now: float | None = None) -> TaskAttempt:
        """Create and dispatch the task's current attempt."""
        attempt = TaskAttempt(
            kind=self.kind, task_index=index, attempt=self.next_attempt[index]
        )
        self.history.append(attempt)
        self._move(attempt, TaskState.DISPATCHED, now)
        return attempt

    def mark_running(self, attempt: TaskAttempt, now: float | None = None) -> None:
        self._move(attempt, TaskState.RUNNING, now)

    def complete(self, attempt: TaskAttempt, output: Any, *, now: float | None = None) -> None:
        """Record the task's winning attempt and its retry counters.

        ``output`` is the task's ``(payload, counters, info)``: the
        attempt's worker pid comes from ``info``, and ``task_attempts``,
        ``task_retries`` and ``tasks_timed_out`` are written into
        ``counters``.
        """
        _payload, counters, info = output
        attempt.worker_pid = info.get("pid")
        self._move(attempt, TaskState.SUCCEEDED, now)
        self.completed.add(attempt.task_index)
        causes = self.causes[attempt.task_index]
        framework = counters.setdefault(FRAMEWORK_GROUP, {})
        framework[TASK_ATTEMPTS] = attempt.attempt
        if causes:
            framework[TASK_RETRIES] = len(causes)
        timeouts = sum(isinstance(cause, TaskTimeoutError) for cause in causes)
        if timeouts:
            framework[TASKS_TIMED_OUT] = timeouts

    def fail(self, attempt: TaskAttempt, error: BaseException, *, now: float | None = None) -> None:
        """Charge one failed or lost attempt; raise when the task may not run again.

        ``error`` is what the attempt raised, or a
        :class:`~repro.mapreduce.job.TaskLostError` for an attempt lost
        with its worker (already KILLED or TIMED_OUT).  An error marked
        ``task_retryable = False`` — a corrupt *input*, which re-running
        the task cannot cure — is re-raised unchanged.  Otherwise the
        error is chained to the task's previous one via ``__cause__`` (a
        pooled attempt's remote traceback stays in between), the next
        attempt number is taken, and once ``max_attempts`` are spent the
        task's :class:`~repro.mapreduce.job.TaskFailedError` is raised.
        """
        if not attempt.state.terminal:
            timed_out = isinstance(error, TaskTimeoutError)
            self._move(attempt, TaskState.TIMED_OUT if timed_out else TaskState.FAILED, now)
        if getattr(error, "task_retryable", True) is False:
            raise error
        causes = self.causes[attempt.task_index]
        if causes:
            remote = error.__cause__
            (remote if isinstance(remote, _RemoteTraceback) else error).__cause__ = causes[-1]
        causes.append(error)
        self.next_attempt[attempt.task_index] += 1
        if self.next_attempt[attempt.task_index] > self.max_attempts:
            raise TaskFailedError(self.kind, self.max_attempts, error, causes=causes) from error

    def kill(
        self,
        attempt: TaskAttempt,
        *,
        timed_out: bool = False,
        now: float | None = None,
    ) -> None:
        """End a live attempt the driver took away; charges nothing."""
        if not attempt.state.terminal:  # a hang-killed attempt is killed again with its pool
            self._move(attempt, TaskState.TIMED_OUT if timed_out else TaskState.KILLED, now)


def backoff_seconds(base: float, kind: str, task_index: int, attempt: int) -> float:
    """Exponential backoff with deterministic full jitter before ``attempt``.

    A first attempt never waits.  The window doubles per retry (attempt 2
    waits ~``base``, attempt 3 ~``2·base``, ...); the actual delay is a
    uniform draw from the upper half of the window, keyed by task
    identity so reruns sleep the same.
    """
    if attempt < 2 or base <= 0:
        return 0.0
    window = base * 2 ** (attempt - 2)
    return window * (0.5 + 0.5 * _draw(0, kind, task_index, f"backoff{attempt}"))


def run_attempt(
    kind: str,
    retries: TaskRetries,
    attempt_fn: Callable[[], Any],
    *,
    task_index: int,
    attempt: int,
    marker: Callable[[int], None] | None = None,
    in_worker: bool = False,
) -> Any:
    """Run exactly the attempt the driver dispatched; return its result.

    Each attempt is completely fresh (new task object, new context, new
    counters), so a failed attempt's partial effects never leak.  In
    order: a retry sleeps its backoff (``retries.retry_backoff_seconds``,
    see :func:`backoff_seconds`), the began-``marker`` is touched, the
    engine's injected faults fire (``retries.fault_plan``), and
    ``attempt_fn`` runs under the post-hoc wall-clock check
    (``retries.task_timeout_seconds``).  Any error propagates: whether the
    task runs again is the driver's :class:`AttemptTracker`'s decision.
    """
    delay = backoff_seconds(retries.retry_backoff_seconds, kind, task_index, attempt)
    if delay:
        time.sleep(delay)
    if marker is not None:
        marker(attempt)
    # The clock starts before injected faults so a SlowFault delay counts
    # as attempt time — injected stragglers trip the same timeout a
    # genuinely slow attempt would.
    started = time.monotonic()
    if retries.fault_plan is not None:
        retries.fault_plan.fire(kind, task_index, attempt, in_worker=in_worker)
    result = attempt_fn()
    elapsed = time.monotonic() - started
    limit = retries.task_timeout_seconds
    if limit is not None and elapsed > limit:
        raise TaskTimeoutError(kind, task_index, attempt, elapsed, limit)
    return result
