"""Shuffle data-plane spill files: naming and worker-side writing.

The direct (driver-bypass) shuffle moves map output through on-disk
spill files — one per producing dispatch under the job's scratch
directory, holding the task's non-empty partitions back to back as
checksummed SPC1 segments — so only manifests (path, payload bytes,
offset per partition) ever cross the driver, and a shuffle costs one file
create per producing task, not one per (task, partition).  Files are
*attempt-scoped*: the dispatch identity (task index and the 1-based
number of the attempt that did the work — see
:func:`repro.mapreduce.controlplane.attempts.attempt_tag`) is baked into
the name, so a retry or a re-dispatch after a lost worker can never
collide with an earlier attempt's file.  The worker writes only after
its attempt succeeds, exactly once, and
:func:`~repro.mapreduce.serialization.write_spill_segments` publishes by
atomic rename — a lost attempt just leaves an orphan that is removed with
the job.

Fault injection rides the publish step: a plan with ``corrupt_rate`` /
``truncate_rate`` damages just-published segments *after* the rename,
modelling silent disk corruption under the writer's feet — exactly the
failure the SPC1 integrity header exists to catch.
"""

from __future__ import annotations

import os
import re

from .controlplane.attempts import attempt_tag
from .faults import FaultPlan
from .job import KeyValue
from .serialization import SPILL_HEADER_BYTES, encode_records, write_spill_segments

#: inverse of :func:`spill_file_path` — scratch tooling and the driver's
#: corruption-recovery path parse (kind, task) back out of names
_SPILL_NAME_RE = re.compile(r"^(?P<kind>[a-z]+)-(?P<task>\d{5})-a\d+\.spill$")

#: one partition's manifest entry: (path, payload bytes, segment offset)
Segment = tuple[str, int, int]


def spill_file_path(spill_dir: str, kind: str, task_index: int, attempt: int) -> str:
    """Attempt-scoped spill file name for one producing dispatch.

    The on-disk format — ``{kind}-{task:05d}-{tag}.spill`` with the tag
    from :func:`attempt_tag` — is locked by a unit test;
    scratch-directory tooling parses it.
    """
    return os.path.join(spill_dir, f"{kind}-{task_index:05d}-{attempt_tag(attempt)}.spill")


def parse_spill_file_name(name: str) -> tuple[str, int] | None:
    """(kind, task_index) parsed from a spill file name, or None."""
    match = _SPILL_NAME_RE.match(name)
    if match is None:
        return None
    return (match.group("kind"), int(match.group("task")))


def spill_partitions(
    partitions: list[list[KeyValue]],
    counts: list[int],
    spill_dir: str,
    kind: str,
    task_index: int,
    attempt: int,
    *,
    plan: FaultPlan | None = None,
    durable: bool = False,
) -> tuple[list[Segment | None], int]:
    """Encode and spill one task's partitions into one file; return
    (manifest entries, segments damaged by injection).

    Empty partitions get no segment (``None`` entry) and a task with no
    output no file; manifest sizes are *payload* bytes (the SPC1 header
    is excluded, keeping byte accounting comparable across planes).  Runs
    worker-side *after* the attempt succeeded, so a failed attempt never
    writes.  ``durable=True`` fsyncs the file before publish
    (journaled engines).  ``plan`` applies post-publish ``corrupt`` /
    ``truncate`` damage, drawn per (task, partition); the count of
    segments made unreadable is reported so the driver can meter exactly
    how many corruptions were injected.
    """
    entries: list[Segment | None] = [None] * len(partitions)
    filled = [partition for partition, count in enumerate(counts) if count]
    if not filled:
        return entries, 0
    path = spill_file_path(spill_dir, kind, task_index, attempt)
    segments = write_spill_segments(
        path, (encode_records(partitions[p]) for p in filled), durable=durable
    )
    for partition, segment in zip(filled, segments):
        entries[partition] = (path, *segment)
    faults = {} if plan is None else {
        p: mode
        for p in filled
        if (mode := plan.spill_fault(kind, task_index, attempt, p))
    }
    return entries, _damage_segments(path, entries, faults) if faults else 0


def _damage_segments(path: str, entries: list[Segment | None], faults: dict[int, str]) -> int:
    """Inflict deterministic post-publish damage; return how many segments
    it made unreadable (each counted once).

    ``corrupt`` flips one byte in the middle of its segment's payload,
    leaving the framing intact so only the CRC can catch it.  ``truncate``
    cuts the file halfway through its segment (caught by the header's
    length field or, if the cut lands inside the header, the short-header
    check), which takes every later segment with it.
    """
    hit = set()
    with open(path, "r+b") as handle:
        for partition, mode in faults.items():  # ascending offsets
            _path, length, offset = entries[partition]
            if mode == "truncate":
                handle.truncate(offset + (SPILL_HEADER_BYTES + length) // 2)
                hit.update(
                    p
                    for p, entry in enumerate(entries)
                    if entry is not None and entry[2] >= offset
                )
                break
            at = offset + SPILL_HEADER_BYTES + length // 2
            handle.seek(at)
            byte = handle.read(1)
            handle.seek(at)
            handle.write(bytes([byte[0] ^ 0xFF]))
            hit.add(partition)
    return len(hit)
