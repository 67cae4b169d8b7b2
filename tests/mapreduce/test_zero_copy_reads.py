"""Zero-copy read path: mmap-backed chunk views, view-accepting codecs."""

import struct

import numpy as np
import pytest

from repro.mapreduce.extsort import ExternalSorter
from repro.mapreduce.serialization import (
    NumpyBufferCodec,
    PickleCodec,
    decode_records,
    encode_records,
    io_meter,
    read_chunk_file,
    read_chunk_view,
    write_chunk_file,
    write_spill_chunk,
)
from repro.mapreduce.shuffle import iter_spill_records


def _records(n=16, dim=8):
    return [(i, np.arange(dim, dtype=np.float64) + i) for i in range(n)]


class TestReadChunkView:
    def test_roundtrip_matches_eager_read(self, tmp_path):
        path = tmp_path / "chunk.npb"
        chunk = encode_records(_records())
        write_chunk_file(path, chunk)
        view = read_chunk_view(path)
        assert isinstance(view, memoryview)
        assert bytes(view) == read_chunk_file(path)
        eager = decode_records(chunk)
        mapped = decode_records(view)
        assert [(k, v.tolist()) for k, v in eager] == [
            (k, v.tolist()) for k, v in mapped
        ]

    def test_decoded_arrays_share_mapped_memory(self, tmp_path):
        path = tmp_path / "chunk.npb"
        write_chunk_file(path, encode_records(_records()))
        view = read_chunk_view(path)
        raw = np.frombuffer(view, dtype=np.uint8)
        for _key, value in decode_records(view):
            assert np.shares_memory(value, raw)
            assert not value.flags.writeable

    def test_meter_counts_mmap_not_copy(self, tmp_path):
        path = tmp_path / "chunk.npb"
        chunk = encode_records(_records())
        write_chunk_file(path, chunk)
        mark = io_meter.snapshot()
        read_chunk_view(path)
        assert io_meter.since(mark) == (1, 0)
        read_chunk_file(path)
        assert io_meter.since(mark) == (1, len(chunk))

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
    @pytest.mark.parametrize("codec", [PickleCodec(), NumpyBufferCodec()])
    def test_decode_accepts_memoryview(self, codec):
        payload = {"arr": np.arange(6.0), "tag": "x"}
        data = codec.encode(payload)
        decoded = codec.decode(memoryview(data))
        assert decoded["tag"] == "x"
        np.testing.assert_array_equal(decoded["arr"], payload["arr"])

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
        write_chunk_file(path, encode_records(_records(6)))
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
        assert results == expected

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
        # The CSR build the kernel performs per working set reuses the
        # conversion arrays — no second copy of the nonzeros.
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
