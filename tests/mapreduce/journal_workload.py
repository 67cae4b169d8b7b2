"""Picklable workload for the durable-journal tests.

Journal resume reloads the job spec pickle in a *different* driver
process, so every class the spec references must be importable under a
stable module path — which is why this lives in a module instead of the
test file's function bodies (``python -c`` children import it the same
way; ``python -m`` would rebrand it ``__main__`` and break unpickling).

``main`` is the subprocess entry point used by the SIGKILL tests: it
runs one journaled job to completion and prints the sorted result.  The
parent kills it mid-map (watching the journal for progress), then calls
``resume_job`` on the same directory in-process.
"""

from __future__ import annotations

import json
import sys
import time

from repro.mapreduce import Job, Mapper, MultiprocessEngine, Reducer

NUM_RECORDS = 96
NUM_MAP_TASKS = 8
NUM_REDUCERS = 4


class SpreadMapper(Mapper):
    """Fan each record out to a key group; optionally sleep per task.

    ``config["sleep_per_task"]`` slows every map task down so a parent
    process has a deterministic window to SIGKILL the driver mid-phase.
    """

    def map(self, key, value, context):
        sleep = context.config.get("sleep_per_task", 0.0)
        if sleep:
            time.sleep(sleep / max(1, NUM_RECORDS // NUM_MAP_TASKS))
        context.emit(key % 12, value * 3 + 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        values = list(values)
        context.emit(key, (len(values), sum(values)))


class GatedReducer(SumReducer):
    """Fails every attempt until ``config["gate_path"]`` exists.

    Lets a test abandon a journaled job after its map phase completed
    (reduce fails, the driver survives), then open the gate and resume.
    """

    def reduce(self, key, values, context):
        import os

        gate = context.config.get("gate_path")
        if gate and not os.path.exists(gate):
            raise RuntimeError(f"gate closed: {gate}")
        super().reduce(key, values, context)


def make_records():
    return [(i, i) for i in range(NUM_RECORDS)]


def make_job(*, sleep_per_task=0.0, gate_path=None, max_attempts=1, name="journaled"):
    config = {}
    if sleep_per_task:
        config["sleep_per_task"] = sleep_per_task
    if gate_path is not None:
        config["gate_path"] = str(gate_path)
    return Job(
        name=name,
        mapper=SpreadMapper,
        reducer=GatedReducer if gate_path is not None else SumReducer,
        num_reducers=NUM_REDUCERS,
        max_attempts=max_attempts,
        config=config,
    )


def run_journaled(journal_dir, *, max_workers=2, **job_kwargs):
    """One full journaled run; returns the JobResult."""
    engine = MultiprocessEngine(max_workers=max_workers, journal_dir=journal_dir)
    try:
        return engine.run(
            make_job(**job_kwargs), make_records(), num_map_tasks=NUM_MAP_TASKS
        )
    finally:
        engine.close()


def main(argv):
    """Subprocess entry: run one journaled job, print the sorted records."""
    journal_dir = argv[0]
    sleep = float(argv[1]) if len(argv) > 1 else 0.0
    result = run_journaled(journal_dir, sleep_per_task=sleep)
    print(json.dumps(sorted(result.records)))


if __name__ == "__main__":  # pragma: no cover - subprocess helper
    main(sys.argv[1:])
