"""Task-lifecycle state machine and attempt bookkeeping.

Every dispatch of a task is a :class:`TaskAttempt` walking the Hadoop
attempt lifecycle::

    PENDING ──> DISPATCHED ──> RUNNING ──> SUCCEEDED
                    │             ├──────> FAILED
                    │             ├──────> KILLED      (pool torn down)
                    │             └──────> TIMED_OUT   (hang budget blown)
                    └──(pool died before start)──> KILLED

Attempt numbering is *global* per task: attempts lost driver-side (dead
worker, hang kill) advance the same 1-based counter the worker-side
retry loop uses, so ``max_attempts`` bounds the total effort per task
and attempt-pinned injected faults never re-fire on re-dispatch.

An engine's retry settings are one :class:`TaskRetries`, built and
range-checked by the engine's constructor; nothing else sets them.

Two consumers share this module:

- workers run :func:`run_attempt_loop` — the in-attempt retry loop with
  deterministic exponential backoff and the post-hoc wall-clock check;
- drivers (both engines) hold an :class:`AttemptTracker` per phase — it
  owns attempt numbering and lost-attempt charging, and emits every
  transition to the engine's event bus.  A task has at most one live
  (non-terminal) attempt at a time.

This module is engine-agnostic by design: it must not import
:mod:`repro.mapreduce.runtime` (see ``tests/test_layering.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, TYPE_CHECKING

from ..counters import FRAMEWORK_GROUP
from ..faults import FaultPlan, _draw
from ..job import TaskFailedError, TaskLostError, TaskTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventBus

#: Framework counter: failed attempts absorbed by retries (equals
#: ``task_retries`` per winning task, but named so retry storms are
#: legible in job counters).  Lost attempts (worker death, hang kill)
#: are charged too — the winning re-dispatch reports them, so a
#: recovered worker crash is visible in job counters even though no
#: exception ever reached the retry loop.
TASK_FAILURES = "task_failures"
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
    *decisions* — attempt numbering, lost-attempt charging against the
    retry budget — and narrates every transition to the event bus.  Both
    :class:`~repro.mapreduce.runtime.SerialEngine` (trivially) and
    :class:`~repro.mapreduce.runtime.MultiprocessEngine` (fully) run
    their phases through one of these.
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

    # -- lifecycle -------------------------------------------------------------
    def begin_dispatch(self, index: int, *, now: float | None = None) -> TaskAttempt:
        """Create and dispatch the task's current attempt."""
        now = self._clock() if now is None else now
        attempt = TaskAttempt(
            kind=self.kind, task_index=index, attempt=self.next_attempt[index]
        )
        attempt.transition(TaskState.DISPATCHED, now)
        self.history.append(attempt)
        self._emit(attempt, now)
        return attempt

    def mark_running(self, attempt: TaskAttempt, now: float | None = None) -> None:
        now = self._clock() if now is None else now
        attempt.transition(TaskState.RUNNING, now)
        self._emit(attempt, now)

    def complete(
        self,
        attempt: TaskAttempt,
        *,
        now: float | None = None,
        worker_pid: int | None = None,
    ) -> None:
        """Record the task's winning attempt."""
        now = self._clock() if now is None else now
        attempt.worker_pid = worker_pid
        attempt.transition(TaskState.SUCCEEDED, now)
        self.completed.add(attempt.task_index)
        self._emit(attempt, now)

    def fail(self, attempt: TaskAttempt, now: float | None = None) -> None:
        now = self._clock() if now is None else now
        attempt.transition(TaskState.FAILED, now)
        self._emit(attempt, now)

    def kill(
        self,
        attempt: TaskAttempt,
        *,
        timed_out: bool = False,
        now: float | None = None,
    ) -> None:
        now = self._clock() if now is None else now
        if not attempt.state.terminal:  # a hang-killed attempt is killed again with its pool
            attempt.transition(
                TaskState.TIMED_OUT if timed_out else TaskState.KILLED, now
            )
            self._emit(attempt, now)

    # -- attempt budget --------------------------------------------------------
    def charge_lost(self, index: int) -> None:
        """Charge one lost attempt (worker started it, pool died)."""
        self.next_attempt[index] += 1

    def exhausted(self, index: int) -> bool:
        """True when the task's retry budget is fully consumed."""
        return self.next_attempt[index] > self.max_attempts

    def lost_error(self, index: int, task_index: int) -> TaskFailedError:
        """The failure raised when lost attempts alone exhaust the budget."""
        lost = TaskLostError(self.kind, task_index, self.next_attempt[index] - 1)
        return TaskFailedError(self.kind, self.max_attempts, lost, causes=[lost])


def backoff_seconds(base: float, kind: str, task_index: int, attempt: int) -> float:
    """Exponential backoff with deterministic full jitter before ``attempt``.

    The window doubles per retry (attempt 2 waits ~``base``, attempt 3
    ~``2·base``, ...); the actual delay is a uniform draw from the upper
    half of the window, keyed by task identity so reruns sleep the same.
    """
    window = base * (2 ** max(0, attempt - 2))
    return window * (0.5 + 0.5 * _draw(0, kind, task_index, f"backoff{attempt}"))


def run_attempt_loop(
    kind: str,
    retries: TaskRetries,
    attempt_fn: Callable[[int], Any],
    *,
    task_index: int = 0,
    first_attempt: int = 1,
    marker: Callable[[int], None] | None = None,
    in_worker: bool = False,
) -> Any:
    """Hadoop's attempt loop: re-run a failed task up to ``retries.max_attempts``.

    Each retry gets a completely fresh attempt (new task object, new
    context, new counters), so partial effects of a failed attempt never
    leak — the engine only ever keeps a *successful* attempt's output.
    Every failed attempt's exception is chained to the previous one via
    ``__cause__`` (the full retry history survives in the traceback) and
    counted: the winning attempt's counters carry ``task_retries``,
    ``task_failures`` and ``task_attempts`` so retry storms show up in job
    results — including attempts lost *before* this loop ran
    (``first_attempt > 1`` means the driver already lost that many to dead
    workers, and they are charged here on success).

    Per attempt, in order: the engine's injected faults fire
    (``retries.fault_plan``), the attempt runs under the post-hoc
    wall-clock check (``retries.task_timeout_seconds``), and failures
    sleep an exponentially growing, deterministically jittered backoff
    (``retries.retry_backoff_seconds``) before the next attempt.
    """
    plan, limit = retries.fault_plan, retries.task_timeout_seconds
    max_attempts = retries.max_attempts
    failures: list[BaseException] = []
    timeouts = 0
    attempt = first_attempt
    while attempt <= max_attempts:
        if failures and retries.retry_backoff_seconds > 0:
            time.sleep(backoff_seconds(retries.retry_backoff_seconds, kind, task_index, attempt))
        try:
            if marker is not None:
                marker(attempt)
            # The clock starts before injected faults so a SlowFault delay
            # counts as attempt time — injected stragglers trip the same
            # timeout a genuinely slow attempt would.
            started = time.monotonic()
            if plan is not None:
                plan.fire(kind, task_index, attempt, in_worker=in_worker)
            result, counters = attempt_fn(attempt)
            elapsed = time.monotonic() - started
            if limit is not None and elapsed > limit:
                raise TaskTimeoutError(kind, task_index, attempt, elapsed, limit)
        except Exception as exc:  # noqa: BLE001 - task code may raise anything
            if getattr(exc, "task_retryable", True) is False:
                # Not this task's fault and not curable by re-running it
                # (e.g. a corrupt *input* spill file): surface immediately
                # without burning retry budget — the driver owns the fix.
                raise
            if failures:
                exc.__cause__ = failures[-1]
            failures.append(exc)
            if isinstance(exc, TaskTimeoutError):
                timeouts += 1
            attempt += 1
            continue
        lost = first_attempt - 1
        fail_count = len(failures) + lost
        counters.setdefault(FRAMEWORK_GROUP, {})
        framework = counters[FRAMEWORK_GROUP]
        framework[TASK_ATTEMPTS] = framework.get(TASK_ATTEMPTS, 0) + attempt
        if fail_count:
            framework[TASK_RETRIES] = framework.get(TASK_RETRIES, 0) + fail_count
            framework[TASK_FAILURES] = framework.get(TASK_FAILURES, 0) + fail_count
        if timeouts:
            framework[TASKS_TIMED_OUT] = framework.get(TASKS_TIMED_OUT, 0) + timeouts
        return result, counters
    if not failures:  # budget consumed entirely by driver-side lost attempts
        lost_error = TaskLostError(kind, task_index, first_attempt - 1)
        raise TaskFailedError(kind, max_attempts, lost_error, causes=[lost_error])
    raise TaskFailedError(kind, max_attempts, failures[-1], causes=failures) from failures[-1]
