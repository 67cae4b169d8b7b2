"""External merge sort: the shuffle's answer to partitions beyond memory.

Hadoop's reducers merge map outputs that do not fit in RAM by spilling
sorted runs to disk and k-way merging them.  The in-memory engine here
usually doesn't need that, but the paper's whole premise is datasets that
exceed single-machine memory — so the substrate provides the real
mechanism:

- :class:`ExternalSorter` — accept records, keep at most
  ``memory_budget`` of them buffered, spill sorted runs to temp files
  (length-prefixed NPB1 chunks — the shuffle codec, so ndarray payloads
  spill out-of-band instead of through the pickle stream), then stream a
  globally sorted merge via ``heapq.merge``;
- :func:`sorted_groups` — the reducer-facing wrapper yielding
  ``(key, value-iterator)`` groups from a sorter, drop-in compatible
  with :func:`repro.mapreduce.shuffle.sort_and_group`.

Spill accounting (runs written, records spilled) is exposed for tests
and for the simulator's I/O model.
"""

from __future__ import annotations

import heapq
import struct
import tempfile
from itertools import groupby
from pathlib import Path
from typing import Any, Callable, Iterator

from .serialization import (
    SpillCorruptionError,
    decode_records,
    encode_records,
    read_chunk_view,
    record_size,
    spill_crc,
)
from .shuffle import stable_hash

KeyValue = tuple[Any, Any]

#: records per framed chunk within a spill run.  Runs are read back one
#: chunk at a time during the k-way merge, so per-run memory while merging
#: is one chunk, not the whole run.
_RUN_CHUNK_RECORDS = 512

#: per-chunk frame header within a run file: payload length + CRC32
_FRAME_HEADER = struct.Struct("<QI")


class ExternalSorter:
    """Sort arbitrarily many records under a byte budget.

    Usage::

        sorter = ExternalSorter(memory_budget=1_000_000)
        for record in records:
            sorter.add(*record)
        for key, value in sorter.sorted_records():
            ...

    ``sort_key`` maps keys to sortable proxies (same contract as the
    in-memory shuffle); ties between distinct keys break on the stable
    hash so output order is deterministic.  A sorter is single-use:
    adding after iteration starts raises.
    """

    def __init__(
        self,
        memory_budget: int = 64_000_000,
        *,
        sort_key: Callable[[Any], Any] | None = None,
        spill_dir: Path | str | None = None,
    ):
        if memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {memory_budget}")
        self.memory_budget = memory_budget
        self.sort_key = sort_key
        self._buffer: list[KeyValue] = []
        self._buffered_bytes = 0
        self._runs: list[Path] = []
        # Only own a system tempdir when the caller gave us nowhere to
        # spill; a caller-provided directory is the caller's to remove
        # (e.g. the engine's per-job shuffle directory, swept on release),
        # so a worker killed mid-merge leaks nothing under /tmp.
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if spill_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-extsort-")
            self._spill_dir = Path(self._tempdir.name)
        else:
            self._spill_dir = Path(spill_dir)
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        self._sealed = False
        #: observability: records that went through a disk run
        self.spilled_records = 0

    # -- ingest ----------------------------------------------------------------
    def add(self, key: Any, value: Any) -> None:
        if self._sealed:
            raise RuntimeError("sorter already iterated; create a new one")
        self._buffer.append((key, value))
        self._buffered_bytes += record_size(key, value)
        if self._buffered_bytes >= self.memory_budget:
            self._spill()

    def add_all(self, records: Iterator[KeyValue] | list[KeyValue]) -> None:
        for key, value in records:
            self.add(key, value)

    # -- spill machinery ----------------------------------------------------------
    def _ordering(self, record: KeyValue):
        key = record[0]
        if self.sort_key is None:
            return (key,)
        return (self.sort_key(key), stable_hash(key))

    def _spill(self) -> None:
        if not self._buffer:
            return
        self._buffer.sort(key=self._ordering)
        run_path = self._spill_dir / f"run-{len(self._runs):05d}.npb"
        with run_path.open("wb") as handle:
            for start in range(0, len(self._buffer), _RUN_CHUNK_RECORDS):
                chunk = encode_records(self._buffer[start : start + _RUN_CHUNK_RECORDS])
                handle.write(_FRAME_HEADER.pack(len(chunk), spill_crc(chunk)))
                handle.write(chunk)
        self._runs.append(run_path)
        self.spilled_records += len(self._buffer)
        self._buffer = []
        self._buffered_bytes = 0

    @staticmethod
    def _read_run(path: Path) -> Iterator[KeyValue]:
        # One mmap per run; each framed chunk decodes from a slice of the
        # mapping, so merge-time memory stays one chunk of *records* per
        # run and the raw bytes are never copied out of the page cache.
        # Every frame is length- and CRC-checked: a torn or bit-flipped
        # run file surfaces as SpillCorruptionError instead of a pickle
        # error (or, worse, silently wrong records).
        view = read_chunk_view(path)
        offset, end = 0, view.nbytes
        while offset < end:
            if end - offset < _FRAME_HEADER.size:
                raise SpillCorruptionError(
                    str(path), f"truncated run frame header at offset {offset}"
                )
            length, crc = _FRAME_HEADER.unpack_from(view, offset)
            offset += _FRAME_HEADER.size
            if offset + length > end:
                raise SpillCorruptionError(
                    str(path),
                    f"truncated run frame at offset {offset} "
                    f"(need {length} bytes, have {end - offset})",
                )
            chunk = view[offset : offset + length]
            if spill_crc(chunk) != crc:
                raise SpillCorruptionError(
                    str(path), f"run frame CRC mismatch at offset {offset}"
                )
            yield from decode_records(chunk)
            offset += length

    # -- output ---------------------------------------------------------------
    @property
    def num_runs(self) -> int:
        return len(self._runs)

    def sorted_records(self) -> Iterator[KeyValue]:
        """Stream all records in key order (merging spills and buffer).

        Streams are merged oldest run first with the in-memory buffer
        last; since ``heapq.merge`` is stable across its inputs, records
        whose ordering keys tie come out in *arrival* order — the same
        tie-break a single stable in-memory sort gives, so spilling and
        not spilling produce identical streams.
        """
        if self._sealed:
            raise RuntimeError("sorter already iterated; create a new one")
        self._sealed = True
        self._buffer.sort(key=self._ordering)
        streams: list[Iterator[KeyValue]] = [
            self._read_run(path) for path in self._runs
        ]
        streams.append(iter(self._buffer))
        yield from heapq.merge(*streams, key=self._ordering)

    def close(self) -> None:
        """Release spill files early (also happens on GC for owned dirs)."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            return
        for path in self._runs:
            try:
                path.unlink()
            except OSError:
                pass  # caller's directory may already be gone

    def __enter__(self) -> "ExternalSorter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sorted_groups(
    sorter: ExternalSorter,
) -> Iterator[tuple[Any, Iterator[Any]]]:
    """Group a sorter's output by key — the external sort_and_group."""
    for key, group in groupby(sorter.sorted_records(), key=lambda kv: kv[0]):
        yield key, (value for _key, value in group)
