"""Durable job journal: crash-resumable execution (PR 7 tentpole).

The journal's contract, in order of increasing violence:

- the JSONL file itself is append-only, fsync'd, and tolerantly read
  (a torn final line is a legal crash artifact, anything else raises);
- a journaled run that *succeeds* retires all of its durable state;
- a journaled run that *fails or dies* can be resumed bit-identically —
  records and job counters — re-running only the map tasks whose spill
  files did not survive intact, proven by ``tasks_resumed`` /
  ``tasks_replayed`` and, in the hardest test, by SIGKILLing a real
  driver subprocess mid-map-phase.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.mapreduce import (
    JobJournal,
    MultiprocessEngine,
    SerialEngine,
    TaskFailedError,
    choose_engine,
    plan_resume,
    read_journal,
    resume_job,
)
from repro.mapreduce.journal import JOURNAL_NAME, parse_jsonl_tolerant
from repro.mapreduce.stats import EngineStats

from . import journal_workload as workload

REPO_ROOT = Path(__file__).resolve().parents[2]


def reference_result():
    """The uninterrupted ground truth every resumed run must match."""
    with SerialEngine() as engine:
        return engine.run(
            workload.make_job(),
            workload.make_records(),
            num_map_tasks=workload.NUM_MAP_TASKS,
        )


def journal_types(journal_dir):
    counts: dict[str, int] = {}
    for record in read_journal(Path(journal_dir) / JOURNAL_NAME):
        counts[record["type"]] = counts.get(record["type"], 0) + 1
    return counts


class TestJournalFile:
    def test_parse_tolerates_torn_final_line(self):
        text = '{"type": "a"}\n{"type": "b"}\n{"type": "c", "oops'
        assert parse_jsonl_tolerant(text) == [{"type": "a"}, {"type": "b"}]

    def test_parse_raises_on_interior_corruption(self):
        text = '{"type": "a"}\n{"torn\n{"type": "c"}\n'
        with pytest.raises(json.JSONDecodeError):
            parse_jsonl_tolerant(text)

    def test_append_fsyncs_and_meters(self, tmp_path):
        stats = EngineStats()
        journal = JobJournal(tmp_path, stats=stats)
        journal.append({"type": "x", "n": 1})
        journal.append({"type": "y", "n": 2})
        journal.close()
        assert read_journal(tmp_path / JOURNAL_NAME) == [
            {"type": "x", "n": 1},
            {"type": "y", "n": 2},
        ]
        assert stats.journal_events == 2

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            plan_resume(tmp_path / "nowhere")


class TestJournaledRun:
    def test_success_retires_artifacts_and_matches_serial(self, tmp_path):
        result = workload.run_journaled(tmp_path)
        reference = reference_result()
        assert sorted(result.records) == sorted(reference.records)
        assert result.counters.as_dict() == reference.counters.as_dict()
        types = journal_types(tmp_path)
        assert types["job_submitted"] == 1
        assert types["job_finished"] == 1
        assert types["map_result"] == workload.NUM_MAP_TASKS
        assert types["AttemptTransition"] > 0
        # Success retires the durable state: no spill dirs, no spec pickle.
        assert sorted(p.name for p in tmp_path.iterdir()) == [JOURNAL_NAME]
        with pytest.raises(ValueError, match="nothing to resume"):
            plan_resume(tmp_path)

    def test_journal_requires_direct_shuffle(self, tmp_path):
        with pytest.raises(ValueError, match="journal_dir requires"):
            MultiprocessEngine(shuffle_mode="relay", journal_dir=tmp_path)

    def test_journal_dir_forces_pooled_engine(self, tmp_path):
        engine = choose_engine(10, journal_dir=tmp_path)
        try:
            assert isinstance(engine, MultiprocessEngine)
            assert engine.shuffle_mode == "direct"
        finally:
            engine.close()


def abandoned_run(tmp_path):
    """A journaled run whose reduce phase fails after all maps complete.

    Returns (journal_dir, gate_path): touching the gate lets a resumed
    execution's reducers succeed.
    """
    journal_dir = tmp_path / "journal"
    gate = tmp_path / "gate"
    with pytest.raises(TaskFailedError):
        workload.run_journaled(journal_dir, gate_path=gate)
    return journal_dir, gate


class TestResume:
    def test_resume_salvages_all_map_tasks_bit_identical(self, tmp_path):
        journal_dir, gate = abandoned_run(tmp_path)
        plan = plan_resume(journal_dir)
        assert len(plan.salvage) == workload.NUM_MAP_TASKS
        assert plan.missing == []

        gate.touch()
        outcome = resume_job(journal_dir, max_workers=2)
        assert outcome.tasks_resumed == workload.NUM_MAP_TASKS
        assert outcome.tasks_replayed == 0
        reference = reference_result()
        assert sorted(outcome.result.records) == sorted(reference.records)
        assert outcome.result.counters.as_dict() == reference.counters.as_dict()
        # The resumed completion retires every open run's artifacts.
        assert sorted(p.name for p in journal_dir.iterdir()) == [JOURNAL_NAME]
        with pytest.raises(ValueError, match="nothing to resume"):
            plan_resume(journal_dir)

    def test_resume_replays_only_tasks_with_missing_spills(self, tmp_path):
        journal_dir, gate = abandoned_run(tmp_path)
        # Destroy two map tasks' outputs outright (files gone), which the
        # size check must classify as not-salvageable.
        victims = {0, 3}
        for task in victims:
            spills = list(journal_dir.glob(f"*-shuffle/map-{task:05d}-*"))
            assert spills, "expected durable spill files for the victim task"
            for path in spills:
                path.unlink()

        gate.touch()
        outcome = resume_job(journal_dir, max_workers=2)
        assert outcome.tasks_resumed == workload.NUM_MAP_TASKS - len(victims)
        assert outcome.tasks_replayed == len(victims)
        reference = reference_result()
        assert sorted(outcome.result.records) == sorted(reference.records)
        assert outcome.result.counters.as_dict() == reference.counters.as_dict()

    def test_resume_rejects_truncated_spill(self, tmp_path):
        journal_dir, gate = abandoned_run(tmp_path)
        spills = sorted(journal_dir.glob("*-shuffle/map-00002-*"))
        assert spills
        with open(spills[0], "r+b") as handle:
            handle.truncate(max(1, os.path.getsize(spills[0]) // 2))
        plan = plan_resume(journal_dir)
        assert 2 in plan.missing
        gate.touch()
        outcome = resume_job(journal_dir, max_workers=2)
        assert outcome.tasks_replayed >= 1
        assert sorted(outcome.result.records) == sorted(
            reference_result().records
        )

    def test_pre_segment_manifest_is_replayed_not_salvaged(self, tmp_path):
        # A journal from before files were segmented: two-field entries,
        # one file per partition.  Nothing there can be trusted to name a
        # segment, so every task re-runs — and the resume does not crash.
        journal_dir, gate = abandoned_run(tmp_path)
        path = journal_dir / JOURNAL_NAME
        records = read_journal(path)
        for record in records:
            if record["type"] == "map_result":
                record["entries"] = [entry and entry[:2] for entry in record["entries"]]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        plan = plan_resume(journal_dir)
        assert plan.salvage == {}
        assert plan.missing == list(range(workload.NUM_MAP_TASKS))
        gate.touch()
        outcome = resume_job(journal_dir, max_workers=2)
        assert outcome.tasks_replayed == workload.NUM_MAP_TASKS
        assert sorted(outcome.result.records) == sorted(reference_result().records)

    def test_attempt_lines_of_an_older_journal_still_load(self, tmp_path):
        # Until speculative execution was deleted every AttemptTransition
        # line carried a "speculative" key.  Resume reads type / uid /
        # manifests only, so a journal written by such a driver resumes.
        journal_dir, gate = abandoned_run(tmp_path)
        path = journal_dir / JOURNAL_NAME
        records = read_journal(path)
        for record in records:
            if record["type"] == "AttemptTransition":
                record["speculative"] = False
        assert sum("speculative" in record for record in records) >= workload.NUM_MAP_TASKS
        text = "".join(json.dumps(record) + "\n" for record in records)
        path.write_text(text)
        assert parse_jsonl_tolerant(text) == records
        assert len(plan_resume(journal_dir).salvage) == workload.NUM_MAP_TASKS
        gate.touch()
        outcome = resume_job(journal_dir, max_workers=2)
        assert outcome.tasks_resumed == workload.NUM_MAP_TASKS
        assert sorted(outcome.result.records) == sorted(reference_result().records)


@pytest.mark.durability
class TestDriverKill:
    def test_sigkilled_driver_resumes_bit_identical(self, tmp_path):
        """SIGKILL a real journaled driver mid-map; resume must finish the
        job bit-identically with strictly fewer map re-runs."""
        journal_dir = tmp_path / "journal"
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from tests.mapreduce import journal_workload as w; "
                "w.main(sys.argv[1:])",
                str(journal_dir),
                "0.6",  # seconds of map work per task: a wide kill window
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill once at least two map results are durable but before the
            # job can finish — the journal itself is the progress signal.
            journal_path = journal_dir / JOURNAL_NAME
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                assert child.poll() is None, "driver finished before the kill"
                done = 0
                if journal_path.exists():
                    done = sum(
                        1
                        for record in read_journal(journal_path)
                        if record["type"] == "map_result"
                    )
                if done >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("driver never journaled two map results")
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup guard
                child.kill()
                child.wait()

        outcome = resume_job(journal_dir, max_workers=2)
        assert outcome.tasks_resumed >= 1
        assert (
            outcome.tasks_resumed + outcome.tasks_replayed
            == workload.NUM_MAP_TASKS
        )
        assert outcome.tasks_replayed < workload.NUM_MAP_TASKS
        reference = reference_result()
        assert sorted(outcome.result.records) == sorted(reference.records)
        assert outcome.result.counters.as_dict() == reference.counters.as_dict()
        assert sorted(p.name for p in journal_dir.iterdir()) == [JOURNAL_NAME]
