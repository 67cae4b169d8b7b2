"""Partitioning, sorting, and grouping — the sort/shuffle phase.

Keys are partitioned with a *deterministic* hash (Python's builtin ``hash``
is salted per process via PYTHONHASHSEED, which would make multiprocess
runs non-reproducible and split keys across partitions between the driver
and the workers).  Within each partition, records are sorted by key and
grouped, reproducing Hadoop's guarantee that a reducer sees each key once
with all its values, keys in sorted order.
"""

from __future__ import annotations

import hashlib
import operator
import pickle
from itertools import groupby
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .serialization import (
    SpillCorruptionError,
    decode_records,
    read_spill_chunk,
    record_size,
)

KeyValue = tuple[Any, Any]


def iter_spill_records(entries: Iterable[tuple[str, int, int]]) -> Iterator[KeyValue]:
    """Stream one partition's records from its spill segments, in manifest order.

    Reduce tasks on the direct shuffle path read their partition straight
    from the producing tasks' spill files instead of driver-relayed
    chunks: each ``(path, payload_bytes, offset)`` entry names this
    partition's segment in one producer's file.  Yielding segments in
    manifest order (producing-task order, fixed by the driver) reproduces
    the relay path's arrival order exactly, so the stable sort downstream
    breaks key ties identically and outputs stay bit-identical across
    shuffle planes.  Each call starts a fresh stream, which is what lets a
    retried reduce attempt re-read its input from scratch.  Files are
    mmap-mapped, not slurped: ndarray payloads decode as read-only views
    over the page cache with no intermediate ``bytes`` copy.

    Only the segment's own SPC1 header is verified before decoding (and
    decode errors are promoted to :class:`SpillCorruptionError` naming
    it), so damage is always attributed to the producing map task rather
    than surfacing as an opaque pickle failure in the reducer, and damage
    to a sibling partition's segment is never seen.
    """
    for path, length, offset in entries:
        payload = read_spill_chunk(path, length, offset)
        try:
            records = decode_records(payload)
        except SpillCorruptionError:
            raise
        except Exception as exc:  # undetected damage within a valid frame
            raise SpillCorruptionError(str(path), f"undecodable payload: {exc}", offset) from exc
        yield from records


def stable_hash(key: Any) -> int:
    """Process-independent 64-bit hash of an arbitrary picklable key.

    Ints and strings take a fast path; everything else hashes its canonical
    pickle.  Equal keys always collide (required for correctness) — a
    NumPy integer is hashed as the ``int`` it equals, whatever its width;
    the spread only affects balance.
    """
    if isinstance(key, bool):  # bool before int: True/False pickle differently
        data = b"\x01" if key else b"\x00"
    elif isinstance(key, int):
        data = key.to_bytes((key.bit_length() + 8) // 8 + 1, "little", signed=True)
    elif isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    elif isinstance(key, np.integer):
        return stable_hash(operator.index(key))
    else:
        data = pickle.dumps(key, protocol=4)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def hash_partition(key: Any, num_partitions: int) -> int:
    """Default partitioner: stable hash modulo partition count."""
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    return stable_hash(key) % num_partitions


def partition_records(
    records: Iterable[KeyValue],
    num_partitions: int,
    partitioner: Callable[[Any, int], int] | None = None,
) -> list[list[KeyValue]]:
    """Split records into ``num_partitions`` lists by key."""
    part_fn = partitioner or hash_partition
    partitions: list[list[KeyValue]] = [[] for _ in range(num_partitions)]
    for key, value in records:
        index = part_fn(key, num_partitions)
        if not 0 <= index < num_partitions:
            raise ValueError(
                f"partitioner returned {index} for key {key!r}, "
                f"outside [0, {num_partitions})"
            )
        partitions[index].append((key, value))
    return partitions


def partition_with_sizes(
    records: Iterable[KeyValue],
    num_partitions: int,
    partitioner: Callable[[Any, int], int] | None = None,
) -> tuple[list[list[KeyValue]], list[int]]:
    """Partition records and account their byte sizes in one pass.

    Returns ``(partitions, partition_bytes)`` where ``partition_bytes[p]``
    is the :func:`~repro.mapreduce.serialization.record_size` sum of
    partition ``p``.  Map tasks report these sums so the driver can meter
    ``SHUFFLE_BYTES`` without re-measuring every gathered record (the
    engine's old double byte-accounting).
    """
    part_fn = partitioner or hash_partition
    partitions: list[list[KeyValue]] = [[] for _ in range(num_partitions)]
    sizes = [0] * num_partitions
    for key, value in records:
        index = part_fn(key, num_partitions)
        if not 0 <= index < num_partitions:
            raise ValueError(
                f"partitioner returned {index} for key {key!r}, "
                f"outside [0, {num_partitions})"
            )
        partitions[index].append((key, value))
        sizes[index] += record_size(key, value)
    return partitions, sizes


def sort_and_group(
    records: list[KeyValue],
    sort_key: Callable[[Any], Any] | None = None,
) -> Iterator[tuple[Any, Iterator[Any]]]:
    """Sort a partition by key and yield (key, value-iterator) groups.

    ``sort_key`` maps a record key to a sortable proxy when keys are not
    naturally comparable (mixed types, dataclasses).  Grouping is by the
    *original* key, so distinct keys with equal proxies stay separate
    groups as long as they are adjacent after sorting; a tie-break on the
    stable hash keeps them deterministic.
    """
    if sort_key is None:
        ordering = lambda kv: kv[0]  # noqa: E731 - tiny inline key
    else:
        ordering = lambda kv: (sort_key(kv[0]), stable_hash(kv[0]))  # noqa: E731
    ordered = sorted(records, key=ordering)
    for key, group in groupby(ordered, key=lambda kv: kv[0]):
        yield key, (value for _key, value in group)
