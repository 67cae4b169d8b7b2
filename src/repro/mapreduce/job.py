"""Job specification: mappers, reducers, combiners, and their context.

The programming contract mirrors Hadoop 0.20's (the framework version the
paper used):

- a **Mapper** sees input records one at a time and emits key/value pairs;
- the framework **partitions** map output by key, **sorts** each partition,
  and **groups** equal keys;
- a **Reducer** sees each key once with the iterator of all its values and
  emits output records;
- an optional **Combiner** (reducer-shaped) runs on map-side output to
  shrink shuffle volume;
- tasks communicate with the framework only through their :class:`Context`
  (emit, counters, distributed-cache lookup, job configuration) — there is
  no other channel, enforcing the paper's execution model (§3: tasks
  compute on local data, no online communication).

Mapper/reducer *classes* (not instances) are attached to the :class:`Job`
so the multiprocess engine can instantiate them inside worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from .counters import Counters

KeyValue = tuple[Any, Any]


class Context:
    """Per-task facade: collect emitted records, counters, cache, config."""

    def __init__(
        self,
        counters: Counters,
        cache: dict[str, Any] | None = None,
        config: dict[str, Any] | None = None,
    ):
        self.counters = counters
        self._cache = cache or {}
        self.config = config or {}
        self._emitted: list[KeyValue] = []

    def emit(self, key: Any, value: Any) -> None:
        """Emit one key/value record to the next phase."""
        self._emitted.append((key, value))

    def cache_file(self, name: str) -> Any:
        """Fetch a distributed-cache entry by name (Hadoop's DistributedCache).

        Raises KeyError with the available names when absent — a missing
        cache file is a deployment bug, not a condition to silently skip.
        """
        try:
            return self._cache[name]
        except KeyError:
            raise KeyError(
                f"cache file {name!r} not attached to job; "
                f"available: {sorted(self._cache)}"
            ) from None

    def drain(self) -> list[KeyValue]:
        """Take and clear the emitted records (framework-internal)."""
        out = self._emitted
        self._emitted = []
        return out


class Mapper:
    """Base mapper: override :meth:`map`; setup/cleanup are optional hooks."""

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        """Called once per task before the first record."""

    def map(self, key: Any, value: Any, context: Context) -> None:
        """Process one input record; default is the identity mapper."""
        context.emit(key, value)

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        """Called once per task after the last record."""


class Reducer:
    """Base reducer: override :meth:`reduce`."""

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        """Called once per task before the first group."""

    def reduce(self, key: Any, values: Iterator[Any], context: Context) -> None:
        """Process one key group; default re-emits every value."""
        for value in values:
            context.emit(key, value)

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        """Called once per task after the last group."""


class IdentityMapper(Mapper):
    """Pass-through mapper (Algorithm 2's map does nothing)."""


class IdentityReducer(Reducer):
    """Pass-through reducer."""


@dataclass
class Job:
    """Declarative MR job description.

    ``mapper``/``reducer``/``combiner`` are zero-argument factories
    (typically the class itself); the engine instantiates one per task.
    ``num_reducers`` controls reduce-side parallelism; ``partitioner``
    (key, num_partitions) → partition overrides hash partitioning;
    ``sort_key`` orders keys within a partition (must make keys comparable);
    ``cache`` is the distributed cache payload, ``config`` arbitrary
    job-wide parameters readable by every task.  ``max_attempts`` is
    Hadoop's task-retry knob: a task raising an exception is re-executed
    from scratch (fresh mapper/reducer instance, fresh context) up to
    that many times before the job fails.

    The engine itself reads these optional ``config`` keys:

    - ``"records_per_split"`` — records per map split when the caller does
      not pass ``num_map_tasks`` (default
      :data:`~repro.mapreduce.runtime.DEFAULT_RECORDS_PER_SPLIT`);
    - ``"spill_threshold_bytes"`` — reduce partitions whose accounted size
      exceeds this go through the external merge sort instead of an
      in-memory sort (default
      :data:`~repro.mapreduce.runtime.DEFAULT_SPILL_THRESHOLD_BYTES`).

    Fault-tolerance knobs (all off by default; see
    :mod:`repro.mapreduce.faults` and the DESIGN "Fault model" section):

    - ``"task_timeout_seconds"`` — per-attempt wall-clock budget (Hadoop's
      ``mapred.task.timeout``).  An attempt that exceeds it counts as a
      failed attempt (:class:`TaskTimeoutError`, retried under
      ``max_attempts``); on the multiprocess engine a *hung* attempt that
      never returns is killed with its worker pool and re-dispatched.
    - ``"retry_backoff_seconds"`` — base delay between attempts; grows
      exponentially per retry with deterministic jitter (0 disables).
    - ``"fault_plan"`` — a :class:`~repro.mapreduce.faults.FaultPlan` for
      deterministic fault injection (tests/benchmarks only).
    """

    name: str
    mapper: Callable[[], Mapper] = IdentityMapper
    reducer: Callable[[], Reducer] | None = IdentityReducer
    combiner: Callable[[], Reducer] | None = None
    num_reducers: int = 1
    partitioner: Callable[[Any, int], int] | None = None
    sort_key: Callable[[Any], Any] | None = None
    #: secondary sort: order each key group's values before reduce sees
    #: them (Hadoop's composite-key secondary sort, without the plumbing)
    value_sort_key: Callable[[Any], Any] | None = None
    cache: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.num_reducers < 0:
            raise ValueError(f"num_reducers must be >= 0, got {self.num_reducers}")
        if self.num_reducers == 0 and self.reducer is not None:
            raise ValueError("num_reducers=0 (map-only) requires reducer=None")
        if self.reducer is None and self.combiner is not None:
            raise ValueError("a combiner without a reducer is meaningless")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


class TaskFailedError(RuntimeError):
    """A task exhausted its attempts; wraps every attempt's failure.

    ``cause`` is the last attempt's error (kept for compatibility);
    ``causes`` lists all failed attempts in order.  The engine chains each
    attempt's exception to the previous one via ``__cause__`` before
    raising, so a traceback shows the whole retry history, not just the
    final error.  When the failure happened inside a
    :class:`~repro.mapreduce.pipeline.Pipeline`, ``stage_index`` and
    ``job_name`` identify the stage that died.
    """

    #: set by Pipeline when a chained stage fails
    stage_index: int | None = None
    job_name: str | None = None

    def __init__(
        self,
        task_kind: str,
        attempts: int,
        cause: BaseException,
        causes: list[BaseException] | None = None,
    ):
        super().__init__(
            f"{task_kind} task failed after {attempts} attempt(s): {cause!r}"
        )
        self.task_kind = task_kind
        self.attempts = attempts
        self.cause = cause
        self.causes = list(causes) if causes is not None else [cause]

    def __reduce__(self):
        # Exceptions cross process boundaries (pool worker -> driver);
        # the default reduce would replay __init__ with the formatted
        # message as the only argument and fail.
        return (
            type(self),
            (self.task_kind, self.attempts, self.cause, self.causes),
        )


class TaskTimeoutError(RuntimeError):
    """A task attempt exceeded the job's ``task_timeout_seconds`` budget.

    Raised *per attempt* inside the engine's retry loop — the task is
    re-executed like any other failed attempt until ``max_attempts`` runs
    out (then it surfaces wrapped in :class:`TaskFailedError`).
    """

    def __init__(
        self, task_kind: str, task_index: int, attempt: int, elapsed: float, limit: float
    ):
        super().__init__(
            f"{task_kind} task {task_index} attempt {attempt} ran "
            f"{elapsed:.3f}s, over the {limit:.3f}s timeout"
        )
        self.task_kind = task_kind
        self.task_index = task_index
        self.attempt = attempt
        self.elapsed = elapsed
        self.limit = limit

    def __reduce__(self):
        return (
            type(self),
            (self.task_kind, self.task_index, self.attempt, self.elapsed, self.limit),
        )


class TaskLostError(RuntimeError):
    """A task's attempts were lost with dead worker processes.

    The multiprocess engine charges an attempt to every task that was
    in flight when its pool broke (or was killed for a hang); a task whose
    ``max_attempts`` budget is consumed entirely by lost attempts fails
    with this as the :class:`TaskFailedError` cause.
    """

    def __init__(self, task_kind: str, task_index: int, attempts: int):
        super().__init__(
            f"{task_kind} task {task_index} lost {attempts} attempt(s) to "
            "dead or timed-out worker processes"
        )
        self.task_kind = task_kind
        self.task_index = task_index
        self.attempts = attempts

    def __reduce__(self):
        return (type(self), (self.task_kind, self.task_index, self.attempts))


@dataclass
class JobResult:
    """Output of one job run: records, aggregated counters, task counts.

    ``records_elided`` marks a stage whose output never reached the
    driver because the engine fused it into the next stage's shuffle
    (see :meth:`~repro.mapreduce.runtime.MultiprocessEngine.run_chain`);
    ``records`` is then empty by construction, not because the job
    emitted nothing — counters still report the true record volumes.
    """

    records: list[KeyValue]
    counters: Counters
    num_map_tasks: int
    num_reduce_tasks: int
    records_elided: bool = False

    def values(self) -> list[Any]:
        """Just the values of the output records."""
        if self.records_elided:
            raise ValueError(
                "stage records were elided by fused chaining; "
                "re-run with fuse=False to materialize them"
            )
        return [value for _key, value in self.records]

    def as_dict(self) -> dict[Any, Any]:
        """Output records as a key→value dict (keys must be unique)."""
        if self.records_elided:
            raise ValueError(
                "stage records were elided by fused chaining; "
                "re-run with fuse=False to materialize them"
            )
        out: dict[Any, Any] = {}
        for key, value in self.records:
            if key in out:
                raise ValueError(f"duplicate output key {key!r}")
            out[key] = value
        return out


def records_from(values: Iterable[Any]) -> list[KeyValue]:
    """Wrap plain values into (index, value) input records."""
    return [(index, value) for index, value in enumerate(values)]
