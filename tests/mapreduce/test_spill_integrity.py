"""End-to-end spill integrity: SPC1 checksums, injection, recovery.

Every published spill chunk carries an SPC1 header (magic, flags, CRC32,
payload length); extsort runs are SPC1 files too, one segment per chunk
of sorted records.  These tests pin the container format's failure modes, the seeded
``corrupt_rate``/``truncate_rate`` injection that damages files *after*
publication, and the driver's Hadoop-style recovery: quarantine the bad
file, replay the producing map attempt, re-dispatch the reducer —
bit-identically and without burning the reducer's retry budget.
"""

import math
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.element import results_matrix
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce.controlplane.events import SpillQuarantined
from repro.mapreduce.extsort import ExternalSorter
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.job import Job
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine
from repro.mapreduce.serialization import (
    SPILL_HEADER_BYTES,
    SpillCorruptionError,
    encode_records,
    read_spill_chunk,
    write_spill_chunk,
)
from repro.mapreduce.shuffle import iter_spill_records
from repro.mapreduce.spill import parse_spill_file_name, spill_partitions

from .wordcount import SumReducer


def product(a, b):
    return a * b


RECORDS = [(i % 4, i) for i in range(16)]


def clean_run():
    return SerialEngine().run(
        Job(name="clean", reducer=SumReducer, num_reducers=2),
        RECORDS,
        num_map_tasks=4,
    )


class TestSpillContainer:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.spill"
        payload = encode_records([(1, 2.0), (3, 4.0)])
        written = write_spill_chunk(path, payload)
        assert written == SPILL_HEADER_BYTES + len(payload)
        assert path.stat().st_size == written
        assert bytes(read_spill_chunk(path)) == payload

    def test_flipped_payload_byte_raises(self, tmp_path):
        path = tmp_path / "x.spill"
        write_spill_chunk(path, encode_records([(1, 2.0)]))
        data = bytearray(path.read_bytes())
        data[SPILL_HEADER_BYTES + 3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SpillCorruptionError, match="CRC mismatch"):
            read_spill_chunk(path)

    def test_truncation_raises(self, tmp_path):
        path = tmp_path / "x.spill"
        write_spill_chunk(path, encode_records([(1, 2.0), (3, 4.0)]))
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(SpillCorruptionError, match="truncated payload"):
            read_spill_chunk(path)

    def test_short_header_raises(self, tmp_path):
        path = tmp_path / "x.spill"
        path.write_bytes(b"SPC1\x01")
        with pytest.raises(SpillCorruptionError, match="truncated header"):
            read_spill_chunk(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "x.spill"
        write_spill_chunk(path, encode_records([(1, 2.0)]))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(SpillCorruptionError, match="bad magic"):
            read_spill_chunk(path)

    def test_cleared_flags_byte_raises(self, tmp_path):
        """``flags == 0`` is not a legal header: one flipped bit (byte 4,
        0x01 → 0x00) used to switch the CRC off for its segment, so a payload
        damaged alongside it decoded to *different records* with no error."""
        path = tmp_path / "x.spill"
        write_spill_chunk(path, encode_records([(1, 2.0), (3, 4.0)]))
        data = bytearray(path.read_bytes())
        assert data[4] == 0x01  # the writer always records the CRC
        data[4] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(SpillCorruptionError, match="unknown flags 0x00"):
            read_spill_chunk(path)
        data[-1] ^= 0x01  # and a payload bit with it
        path.write_bytes(bytes(data))
        with pytest.raises(SpillCorruptionError, match="unknown flags 0x00"):
            list(iter_spill_records([(str(path), len(data) - SPILL_HEADER_BYTES, 0)]))

    def test_iter_spill_records_wraps_undecodable_payload(self, tmp_path):
        # A payload that passes its CRC but cannot decode (the writer
        # checksummed garbage) is still a corruption, not a crash.
        path = tmp_path / "x.spill"
        garbage = b"not an NPB1 chunk"
        write_spill_chunk(path, garbage)
        with pytest.raises(SpillCorruptionError, match="undecodable payload"):
            list(iter_spill_records([(str(path), len(garbage), 0)]))

    def test_error_pickles_with_fields(self):
        error = SpillCorruptionError("/some/file.spill", "CRC mismatch", 4096)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SpillCorruptionError)
        assert (clone.path, clone.offset) == ("/some/file.spill", 4096)
        assert clone.reason == "CRC mismatch"
        assert clone.task_retryable is False


class TestExtsortIntegrity:
    def _spilled_sorter(self, tmp_path):
        sorter = ExternalSorter(memory_budget=128, spill_dir=tmp_path)
        for ordinal in range(200):
            sorter.add(ordinal % 17, float(ordinal))
        assert sorter.num_runs > 1
        return sorter

    def test_corrupt_run_frame_detected(self, tmp_path):
        sorter = self._spilled_sorter(tmp_path)
        ((path, length, offset),) = sorter._runs[0]  # a short run: one segment
        run = Path(path)
        data = bytearray(run.read_bytes())
        data[offset + SPILL_HEADER_BYTES + length // 2] ^= 0xFF
        run.write_bytes(bytes(data))
        with pytest.raises(SpillCorruptionError, match="CRC mismatch") as info:
            list(sorter.sorted_records())
        assert info.value.path == path

    def test_long_run_is_one_segment_per_chunk(self, tmp_path):
        # 1 200 records of 16 accounted bytes fill the budget once: one run
        # of three 512-record segments, each checked on its own.
        sorter = ExternalSorter(memory_budget=16 * 1200, spill_dir=tmp_path)
        for ordinal in range(1200):
            sorter.add(ordinal % 17, float(ordinal))
        (run,) = sorter._runs
        assert len(run) == 3  # segments of one file, back to back
        assert len({path for path, _length, _offset in run}) == 1 and run[0][2] == 0
        path, length, offset = run[-1]
        data = bytearray(Path(path).read_bytes())
        data[offset + SPILL_HEADER_BYTES + length // 2] ^= 0xFF
        Path(path).write_bytes(bytes(data))
        with pytest.raises(SpillCorruptionError, match="CRC mismatch") as info:
            list(sorter.sorted_records())
        assert (info.value.path, info.value.offset) == (path, offset)

    def test_truncated_run_detected(self, tmp_path):
        sorter = self._spilled_sorter(tmp_path)
        ((path, _length, _offset),) = sorter._runs[0]
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        with pytest.raises(SpillCorruptionError, match="truncated payload") as info:
            list(sorter.sorted_records())
        assert info.value.path == path

    def test_caller_owned_spill_dir_survives_close(self, tmp_path):
        sorter = self._spilled_sorter(tmp_path)
        list(sorter.sorted_records())
        sorter.close()
        assert tmp_path.exists()  # run files gone, caller's dir kept
        assert list(tmp_path.glob("run-*")) == []

    def test_owned_tempdir_removed_on_close(self):
        sorter = ExternalSorter(memory_budget=128)
        for ordinal in range(100):
            sorter.add(ordinal, float(ordinal))
        spill_dir = sorter._spill_dir
        sorter.close()
        assert not spill_dir.exists()


class TestFaultPlanSpillFaults:
    def test_nan_slow_seconds_rejected(self):
        with pytest.raises(ValueError, match="slow_seconds"):
            FaultPlan(slow_seconds=math.nan)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(truncate_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=math.nan)

    def test_spill_fault_deterministic_and_first_attempt_only(self):
        plan = FaultPlan(corrupt_rate=1.0, seed=9)
        assert plan.spill_fault("map", 0, 1, 0) == "corrupt"
        assert plan.spill_fault("map", 0, 1, 0) == "corrupt"
        assert plan.spill_fault("map", 0, 2, 0) is None  # replays run clean

    def test_truncate_drawn_independently(self):
        plan = FaultPlan(truncate_rate=1.0, seed=9)
        assert plan.spill_fault("map", 3, 1, 1) == "truncate"
        assert FaultPlan(seed=9).spill_fault("map", 3, 1, 1) is None

    def test_describe_mentions_spill_rates(self):
        text = FaultPlan(corrupt_rate=0.05, truncate_rate=0.02).describe()
        assert "corrupt_rate=0.05" in text
        assert "truncate_rate=0.02" in text


class TestSpillInjection:
    def test_injection_damages_published_files(self, tmp_path):
        partitions = [[(0, 1.0), (2, 2.0)], [], [(1, 3.0)]]
        counts = [2, 0, 1]
        entries, damaged = spill_partitions(
            partitions,
            counts,
            str(tmp_path),
            "map",
            0,
            1,
            plan=FaultPlan(corrupt_rate=1.0),
        )
        assert damaged == 2  # every non-empty partition's segment
        assert entries[1] is None
        for entry in (entries[0], entries[2]):
            with pytest.raises(SpillCorruptionError, match="CRC mismatch"):
                read_spill_chunk(*entry)

    def test_truncation_counts_every_segment_it_takes(self, tmp_path):
        class Plan:
            def spill_fault(self, kind, task_index, attempt, partition):
                return {0: "corrupt", 2: "truncate"}.get(partition)

        partitions = [[(p, float(p))] for p in range(4)]
        entries, damaged = spill_partitions(
            partitions, [1] * 4, str(tmp_path), "map", 0, 1, plan=Plan()
        )
        # The cut inside segment 2 also takes segment 3; segment 1 is untouched.
        assert damaged == 3
        assert list(iter_spill_records([entries[1]])) == partitions[1]
        for p, reason in ((0, "CRC mismatch"), (2, "truncated"), (3, "truncated")):
            with pytest.raises(SpillCorruptionError, match=reason):
                read_spill_chunk(*entries[p])

    def test_file_name_parses_back(self, tmp_path):
        entries, _ = spill_partitions(
            [[(0, 1.0)]], [1], str(tmp_path), "map", 7, 2
        )
        name = entries[0][0].rsplit("/", 1)[-1]
        assert name == "map-00007-a2.spill"
        assert parse_spill_file_name(name) == ("map", 7)
        assert parse_spill_file_name("not-a-spill.bin") is None


_values = st.one_of(
    st.floats(allow_nan=False),
    st.lists(st.floats(allow_nan=False), max_size=5).map(np.array),
)
_partitions = st.lists(
    st.lists(st.tuples(st.integers(0, 9), _values), max_size=4), min_size=1, max_size=6
)


def _same_records(decoded, expected):
    return len(decoded) == len(expected) and all(
        got_key == key and np.array_equal(got, value)
        for (got_key, got), (key, value) in zip(decoded, expected)
    )


class TestSegmentedSpillFile:
    """One ``spill_partitions`` call → one file of independently verified segments."""

    @settings(max_examples=60, deadline=None)
    @given(partitions=_partitions, data=st.data())
    def test_segments_are_contiguous_and_fail_independently(self, partitions, data):
        counts = [len(part) for part in partitions]
        filled = [p for p, count in enumerate(counts) if count]
        with tempfile.TemporaryDirectory() as spill_dir:
            entries, damaged = spill_partitions(
                partitions, counts, spill_dir, "map", 4, 1
            )
            assert damaged == 0
            assert [p for p, entry in enumerate(entries) if entry is not None] == filled
            # Exactly one published file (none for a task without output), no temp.
            assert os.listdir(spill_dir) == (["map-00004-a1.spill"] if filled else [])
            if not filled:
                return
            path = os.path.join(spill_dir, "map-00004-a1.spill")
            end = 0
            for p in filled:
                assert entries[p][0] == path
                assert entries[p][2] == end  # back to back, in partition order
                end += SPILL_HEADER_BYTES + entries[p][1]
            assert os.path.getsize(path) == end

            def readable(p):
                try:
                    decoded = list(iter_spill_records([entries[p]]))
                except SpillCorruptionError as error:
                    assert (error.path, error.offset) == (path, entries[p][2])
                    return False
                assert _same_records(decoded, partitions[p])
                return True

            assert all(readable(p) for p in filled)
            with open(path, "rb") as handle:
                pristine = handle.read()
            victim = data.draw(st.sampled_from(filled), label="victim partition")
            _path, length, offset = entries[victim]
            at = offset + data.draw(
                st.integers(0, SPILL_HEADER_BYTES + length - 1), label="byte in segment"
            )

            # Any flipped byte of the segment fails that segment alone.
            with open(path, "r+b") as handle:
                handle.seek(at)
                handle.write(bytes([pristine[at] ^ 0xFF]))
            assert [p for p in filled if not readable(p)] == [victim]

            # A cut inside the segment fails it and everything after it.
            with open(path, "wb") as handle:
                handle.write(pristine[:at])
            assert [p for p in filled if not readable(p)] == [p for p in filled if p >= victim]

            # Decoded ndarray views outlive the file (the mapping keeps the pages).
            with open(path, "wb") as handle:
                handle.write(pristine)
            decoded = list(iter_spill_records([entries[victim]]))
            os.unlink(path)
            assert _same_records(decoded, partitions[victim])

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        unpicklable = [[(0, lambda: None)]]
        with pytest.raises((pickle.PicklingError, AttributeError)):
            spill_partitions(unpicklable, [1], str(tmp_path), "map", 0, 1)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.durability
class TestCorruptionRecovery:
    def test_every_file_corrupt_recovers_bit_identical(self):
        plan = FaultPlan(corrupt_rate=1.0, seed=3)
        job = Job(
            name="corrupted",
            reducer=SumReducer,
            num_reducers=2,
        )
        with MultiprocessEngine(max_workers=2, fault_plan=plan) as engine:
            result = engine.run(job, RECORDS, num_map_tasks=4)
            reference = clean_run()
            assert result.records == reference.records
            assert result.counters.as_dict() == reference.counters.as_dict()
            stats = engine.stats
            assert stats.spill_files_damaged > 0
            assert stats.spill_corruptions == stats.spill_files_damaged
            assert stats.spill_files_quarantined == stats.spill_corruptions
            assert stats.tasks_replayed == stats.spill_corruptions

    def test_quarantine_links_the_segment_and_leaves_the_file(self):
        # The damaged file is shared: siblings still read their segments
        # from it, so quarantine is a per-segment hard link beside it.
        job = Job(
            name="quarantined",
            reducer=SumReducer,
            num_reducers=2,
        )
        plan = FaultPlan(corrupt_rate=1.0, seed=3)
        linked = []

        def on_event(event):
            if isinstance(event, SpillQuarantined):
                handle = f"{event.path}.p{event.partition:05d}.quarantined"
                linked.append(os.path.samefile(event.path, handle))

        with MultiprocessEngine(max_workers=2, fault_plan=plan) as engine:
            engine.events.subscribe(on_event)
            result = engine.run(job, RECORDS, num_map_tasks=4)
            assert result.records == clean_run().records
            assert len(linked) == engine.stats.spill_files_quarantined > 0
            assert all(linked)

    def test_mixed_rates_recover_bit_identical(self):
        plan = FaultPlan(corrupt_rate=0.5, truncate_rate=0.5, seed=11)
        job = Job(
            name="mixed",
            reducer=SumReducer,
            num_reducers=2,
        )
        with MultiprocessEngine(max_workers=2, fault_plan=plan) as engine:
            result = engine.run(job, RECORDS, num_map_tasks=4)
            assert result.records == clean_run().records
            stats = engine.stats
            assert stats.spill_files_damaged > 0
            assert stats.spill_corruptions == stats.spill_files_damaged

    @pytest.mark.parametrize(
        "scheme",
        [BlockScheme(12, 3), DesignScheme(13)],
        ids=lambda s: s.name,
    )
    def test_pairwise_parity_at_five_percent_rates(self, scheme):
        """The ISSUE's acceptance rates: every injected corruption is
        detected and recovered; pairwise results stay bit-identical."""
        dataset = list(range(1, scheme.v + 1))
        baseline = PairwiseComputation(scheme, product).run(dataset)
        plan = FaultPlan(corrupt_rate=0.05, truncate_rate=0.05, seed=29)
        with MultiprocessEngine(max_workers=2, fault_plan=plan) as engine:
            faulty = PairwiseComputation(scheme, product, engine=engine).run(dataset)
            stats = engine.stats
        assert results_matrix(faulty) == results_matrix(baseline)
        # Every injected corruption was detected, quarantined, replayed.
        assert stats.spill_corruptions == stats.spill_files_damaged
        assert stats.spill_files_quarantined == stats.spill_corruptions

    def test_journaled_run_recovers_from_corruption(self, tmp_path):
        plan = FaultPlan(corrupt_rate=1.0, seed=3)
        job = Job(
            name="journaled-corrupt",
            reducer=SumReducer,
            num_reducers=2,
        )
        with MultiprocessEngine(
            max_workers=2, journal_dir=tmp_path / "journal", fault_plan=plan
        ) as engine:
            result = engine.run(job, RECORDS, num_map_tasks=4)
            assert result.records == clean_run().records
            assert engine.stats.spill_corruptions > 0
