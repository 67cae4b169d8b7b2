"""Zero-copy read path: mmap-backed chunk views, view-accepting codecs, the mapped job broadcast."""

import pickle
import struct

import numpy as np
import pytest

from repro.core.block import BlockScheme
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce.extsort import ExternalSorter
from repro.mapreduce.job import TaskFailedError, records_from
from repro.mapreduce.runtime import MultiprocessEngine
from repro.mapreduce.serialization import (
    decode_records,
    encode_records,
    io_meter,
    read_chunk_view,
    write_encoded,
    write_spill_chunk,
)
from repro.mapreduce.shuffle import iter_spill_records

from .wordcount import LINES, wordcount_job


def _records(n=16, dim=8):
    return [(i, np.arange(dim, dtype=np.float64) + i) for i in range(n)]


class TestReadChunkView:
    def test_roundtrip_matches_eager_read(self, tmp_path):
        path = tmp_path / "chunk.npb"
        chunk = encode_records(_records())
        path.write_bytes(chunk)
        view = read_chunk_view(path)
        assert isinstance(view, memoryview)
        assert bytes(view) == chunk
        eager = decode_records(chunk)
        mapped = decode_records(view)
        assert [(k, v.tolist()) for k, v in eager] == [
            (k, v.tolist()) for k, v in mapped
        ]

    def test_decoded_arrays_share_mapped_memory(self, tmp_path):
        path = tmp_path / "chunk.npb"
        path.write_bytes(encode_records(_records()))
        view = read_chunk_view(path)
        raw = np.frombuffer(view, dtype=np.uint8)
        for _key, value in decode_records(view):
            assert np.shares_memory(value, raw)
            assert not value.flags.writeable

    def test_meter_counts_mmap_not_copy(self, tmp_path):
        path = tmp_path / "chunk.npb"
        path.write_bytes(encode_records(_records()))
        mark = io_meter.snapshot()
        read_chunk_view(path)
        assert io_meter.since(mark) == (1, 0)

    def test_empty_file_falls_back_to_eager_read(self, tmp_path):
        # mmap(0 bytes) raises; the reader degrades to a plain read and
        # returns an empty view (callers never decode empty chunks — the
        # spill writer skips empty partitions).
        path = tmp_path / "empty.npb"
        path.write_bytes(b"")
        mark = io_meter.snapshot()
        view = read_chunk_view(path)
        assert view.nbytes == 0
        assert io_meter.since(mark) == (0, 0)

    def test_spill_stream_reads_views(self, tmp_path):
        records = _records()
        entries = []
        for start in (0, 8):
            path = tmp_path / f"part-{start}.spill"
            chunk = encode_records(records[start : start + 8])
            write_spill_chunk(path, chunk)
            entries.append((str(path), len(chunk), 0))
        mark = io_meter.snapshot()
        streamed = list(iter_spill_records(entries))
        assert io_meter.since(mark) == (2, 0)
        assert [(k, v.tolist()) for k, v in streamed] == [
            (k, v.tolist()) for k, v in records
        ]


class TestCodecViews:
    @pytest.mark.parametrize("value", [[0.0, 1.0, 2.0], np.arange(3.0)], ids=["plain", "ndarray"])
    def test_decode_accepts_memoryview(self, value):
        decoded = decode_records(memoryview(encode_records([("x", value)])))
        assert [key for key, _value in decoded] == ["x"]
        np.testing.assert_array_equal(decoded[0][1], value)

    def test_decode_records_accepts_sliced_view(self):
        records = _records(4)
        chunk = encode_records(records)
        framed = struct.pack("<Q", len(chunk)) + chunk + b"trailing-garbage"
        view = memoryview(framed)
        (length,) = struct.unpack_from("<Q", view, 0)
        decoded = decode_records(view[8 : 8 + length])
        assert [(k, v.tolist()) for k, v in decoded] == [
            (k, v.tolist()) for k, v in records
        ]


class TestKernelZeroCopy:
    def test_dense_kernel_evaluates_mapped_rows_without_copy(self, tmp_path):
        from repro.kernels.dense import DenseDotKernel

        path = tmp_path / "chunk.npb"
        path.write_bytes(encode_records(_records(6)))
        view = read_chunk_view(path)
        payloads = {key: value for key, value in decode_records(view)}
        raw = np.frombuffer(view, dtype=np.uint8)
        for row in payloads.values():
            # The kernel's ingest conversion must pass float64 rows
            # through as views, not private copies.
            ingested = np.asarray(row, dtype=float)
            assert np.shares_memory(ingested, raw)
            assert not row.flags.writeable
        pairs = np.array([(i, j) for i in range(6) for j in range(i + 1, 6)])
        results = DenseDotKernel().evaluate_block(payloads, pairs)
        expected = [float(np.dot(payloads[i], payloads[j])) for i, j in pairs]
        assert np.array_equal(results, expected)

    def test_csr_kernel_shares_conversion_buffers(self):
        sparse = pytest.importorskip("scipy.sparse")
        from repro.kernels.sparse import CsrCosineKernel

        vectors = [
            {"alpha": 0.6, "beta": 0.8},
            {"beta": 1.0},
            {"alpha": 1.0},
            {"alpha": 0.5, "gamma": 0.5},
        ]
        data, cols, indptr, num_terms = CsrCosineKernel._to_csr_arrays(vectors)
        matrix = sparse.csr_matrix(
            (data, cols, indptr), shape=(len(vectors), num_terms), copy=False
        )
        # The CSR build the kernel performs once per store (to_matrix)
        # reuses the conversion arrays — no second copy of the nonzeros.
        assert np.shares_memory(matrix.data, data)
        assert np.shares_memory(matrix.indices, cols)
        payloads = dict(enumerate(vectors))
        pairs = np.array([(0, 1), (0, 2), (2, 3)])
        results = CsrCosineKernel().evaluate_block(payloads, pairs)
        assert results == pytest.approx([0.8, 0.6, 0.5])


class TestExtsortMmapMerge:
    def test_spilled_merge_is_mmap_backed_and_ordered(self, tmp_path):
        sorter = ExternalSorter(memory_budget=256, spill_dir=tmp_path)
        keys = [7, 3, 9, 1, 3, 8, 2, 2, 6, 5, 0, 4] * 20
        for ordinal, key in enumerate(keys):
            sorter.add(key, np.full(4, float(ordinal)))
        assert sorter.num_runs > 1
        mark = io_meter.snapshot()
        merged = list(sorter.sorted_records())
        mmap_reads, bytes_copied = io_meter.since(mark)
        assert mmap_reads == sorter.num_runs
        assert bytes_copied == 0
        assert [k for k, _v in merged] == sorted(keys)
        # Stable arrival-order tie-break survives the mmap rewrite: equal
        # keys come out in insertion order.
        by_key: dict[int, list[float]] = {}
        for key, value in merged:
            by_key.setdefault(key, []).append(float(value[0]))
        for key, ordinals in by_key.items():
            assert ordinals == sorted(ordinals)


def row_dot(a, b):
    return float(np.dot(a, b))


def scale_in_place(a, b):
    a *= 2.0  # the contract forbids this: cached payloads are shared
    return float(np.dot(a, b))


def results_of(merged):
    return {eid: element.results for eid, element in merged.items()}


class TestMappedBroadcast:
    """The per-job broadcast file is NPB1-framed and workers map it."""

    def test_cached_arrays_are_read_from_one_mapping_not_copied(self):
        rows = list(np.random.default_rng(3).random((24, 8192)))  # 64 KiB each
        dataset_bytes = sum(row.nbytes for row in rows)
        with MultiprocessEngine(max_workers=2) as engine:
            runner = PairwiseComputation(BlockScheme(24, 3), row_dot, engine=engine)
            merged = runner.run_cached(rows)
            stats = engine.stats
        assert results_of(merged) == results_of(runner.run_local(rows))
        # A private unpickle per worker per job would read workers × dataset here.
        assert stats.broadcast_bytes > dataset_bytes
        assert stats.bytes_copied < dataset_bytes
        assert stats.broadcast_loads > 0
        assert stats.mmap_reads >= stats.broadcast_loads

    def test_non_contiguous_arrays_fall_back_to_the_in_band_layout(self, tmp_path):
        columns = list(np.arange(12 * 40, dtype=float).reshape(40, 12).T[:, ::2])
        assert not columns[0].flags.contiguous
        path = tmp_path / "job.pkl"
        write_encoded(path, {"dataset": columns})
        assert path.read_bytes() == pickle.dumps(
            {"dataset": columns}, protocol=pickle.HIGHEST_PROTOCOL
        )
        with MultiprocessEngine(max_workers=2) as engine:
            runner = PairwiseComputation(BlockScheme(12, 3), row_dot, engine=engine)
            merged = runner.run_cached(columns)
        assert results_of(merged) == results_of(runner.run_local(columns))

    def test_a_job_without_arrays_is_written_as_before(self, tmp_path):
        job = wordcount_job(name="plain", cache={"words": LINES})
        before = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        path = tmp_path / "job.pkl"
        assert write_encoded(path, job) == len(before)
        assert path.read_bytes() == before
        with MultiprocessEngine(max_workers=2) as engine:
            engine.run(job, records_from(LINES), num_map_tasks=2)
            assert engine.stats.broadcast_bytes == len(before)

    def test_a_pair_function_writing_into_a_cached_payload_raises(self):
        rows = list(np.ones((6, 16)))
        with MultiprocessEngine(max_workers=2) as engine:
            runner = PairwiseComputation(BlockScheme(6, 2), scale_in_place, engine=engine)
            with pytest.raises(TaskFailedError, match="read-only"):
                runner.run_cached(rows)
        assert all((row == 1.0).all() for row in rows)
