"""External merge sort: the shuffle's answer to partitions beyond memory.

Hadoop's reducers merge map outputs that do not fit in RAM by spilling
sorted runs to disk and k-way merging them.  The in-memory engine here
usually doesn't need that, but the paper's whole premise is datasets that
exceed single-machine memory — so the substrate provides the real
mechanism:

- :class:`ExternalSorter` — accept records, keep at most
  ``memory_budget`` of them buffered, spill sorted runs to disk, then
  stream a globally sorted merge via ``heapq.merge``.  A run is an SPC1
  file like a shuffle spill file: one checksummed segment per chunk of
  sorted records, encoded by the shuffle codec (ndarray payloads spill
  out-of-band) and published by
  :func:`~repro.mapreduce.serialization.write_spill_segments`.  The merge
  reads each run back through
  :func:`~repro.mapreduce.shuffle.iter_spill_records`, the reduce path's
  own reader, so a torn or bit-flipped run raises
  :class:`~repro.mapreduce.serialization.SpillCorruptionError` instead of
  yielding different records;
- :func:`sorted_groups` — the reducer-facing wrapper yielding
  ``(key, value-iterator)`` groups from a sorter, drop-in compatible
  with :func:`repro.mapreduce.shuffle.sort_and_group`.

Spill accounting (runs written, records spilled) is exposed for tests
and for the simulator's I/O model.
"""

from __future__ import annotations

import heapq
import tempfile
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator

from .serialization import encode_records, record_size, write_spill_segments
from .shuffle import iter_spill_records

KeyValue = tuple[Any, Any]

#: records per SPC1 segment within a spill run.  Runs are read back one
#: segment at a time during the k-way merge, so per-run memory while
#: merging is one segment, not the whole run.
_RUN_CHUNK_RECORDS = 512

#: records order by key alone; ties keep arrival order (stable sort and merge)
_by_key = itemgetter(0)


class ExternalSorter:
    """Sort arbitrarily many records under a byte budget.

    Usage::

        sorter = ExternalSorter(memory_budget=1_000_000)
        for record in records:
            sorter.add(*record)
        for key, value in sorter.sorted_records():
            ...

    Records are ordered by key (keys must be mutually comparable, as in
    the in-memory shuffle).  A sorter is single-use: adding after
    iteration starts raises.
    """

    def __init__(
        self,
        memory_budget: int = 64_000_000,
        *,
        spill_dir: Path | str | None = None,
    ):
        if memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {memory_budget}")
        self.memory_budget = memory_budget
        self._buffer: list[KeyValue] = []
        self._buffered_bytes = 0
        #: one manifest per spilled run: its segments' (path, payload bytes, offset)
        self._runs: list[list[tuple[str, int, int]]] = []
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
    def _spill(self) -> None:
        if not self._buffer:
            return
        self._buffer.sort(key=_by_key)
        path = str(self._spill_dir / f"run-{len(self._runs):05d}.spill")
        chunks = (
            encode_records(self._buffer[start : start + _RUN_CHUNK_RECORDS])
            for start in range(0, len(self._buffer), _RUN_CHUNK_RECORDS)
        )
        segments = write_spill_segments(path, chunks)
        self._runs.append([(path, *segment) for segment in segments])
        self.spilled_records += len(self._buffer)
        self._buffer = []
        self._buffered_bytes = 0

    # -- output ---------------------------------------------------------------
    @property
    def num_runs(self) -> int:
        return len(self._runs)

    def sorted_records(self) -> Iterator[KeyValue]:
        """Stream all records in key order (merging spills and buffer).

        Streams are merged oldest run first with the in-memory buffer
        last; since ``heapq.merge`` is stable across its inputs, records
        whose keys tie come out in *arrival* order — the same
        tie-break a single stable in-memory sort gives, so spilling and
        not spilling produce identical streams.
        """
        if self._sealed:
            raise RuntimeError("sorter already iterated; create a new one")
        self._sealed = True
        self._buffer.sort(key=_by_key)
        streams = [iter_spill_records(run) for run in self._runs]
        streams.append(iter(self._buffer))
        yield from heapq.merge(*streams, key=_by_key)

    def close(self) -> None:
        """Release spill files early (also happens on GC for owned dirs)."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            return
        for run in self._runs:
            Path(run[0][0]).unlink(missing_ok=True)  # caller's dir may be gone

    def __enter__(self) -> "ExternalSorter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sorted_groups(
    sorter: ExternalSorter,
) -> Iterator[tuple[Any, Iterator[Any]]]:
    """Group a sorter's output by key — the external sort_and_group."""
    for key, group in groupby(sorter.sorted_records(), key=_by_key):
        yield key, (value for _key, value in group)
