"""The record codec, byte accounting, and the one on-disk container.

The engine meters shuffle and output volume in *bytes*, not just records,
because the paper's feasibility limits (maxws/maxis) are byte quantities:
:func:`record_size` measures the pickled size of whatever objects the
application emits.  For analytic experiments where payloads are synthetic,
:class:`SizedPayload` carries a declared size without allocating it, and
:func:`record_size` knows to honour the declaration.

**One codec.**  Records cross task boundaries as chunks encoded by
:func:`encode_records` and decoded by :func:`decode_records`: pickle
protocol 5 with out-of-band buffers.  Every ndarray payload contributes
its raw data buffer to a framed binary layout (``NPB1 · buffer count ·
length-prefixed raw buffers · pickle head``) instead of being copied
element-wise through the pickle stream.  Encoding joins the raw
memoryviews without an intermediate copy; decoding hands zero-copy views
of the wire bytes back to ``pickle.loads`` — decoded arrays are therefore
*read-only* views over the chunk (mappers/reducers treat payloads as
immutable, matching the MR contract).  Chunks without ndarray payloads
keep the plain-pickle wire format, so the two layouts coexist and are
distinguished by the leading magic bytes.

**One container.**  Every file the engine reads back — after a crash or
from another attempt — is an SPC1 file (see the section note below):
shuffle spill files, extsort runs and the journal's job spec.
:func:`write_spill_segments` is the one writer (temp file, optional
fsync, atomic rename) and :func:`read_spill_chunk` the one checking
reader, so damage surfaces as :class:`SpillCorruptionError` naming the
file, never as different records.

**Zero-copy chunk reads.**  The decoder accepts ``bytes`` or any buffer
(``memoryview``), so callers never need an intermediate ``bytes`` copy of
a chunk that already lives somewhere — an ``mmap``'d file
(:func:`read_chunk_view`) or a shared-memory segment
(:mod:`repro.mapreduce.shm`).  The process-local :data:`io_meter` counts
what the read path actually did: ``mmap_reads`` for views served without
copying, ``bytes_copied`` for payload bytes slurped into process-private
buffers (unmappable files, broadcast localizations, relayed chunks).
Task executors snapshot it around each task so the driver can aggregate
per-engine totals without touching job counters.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

#: frame marker for buffer-encoded chunks; a plain pickle stream starts
#: with the PROTO opcode (``b"\x80"``), so the layouts cannot collide.
_BUFFER_MAGIC = b"NPB1"

#: accounting overhead per ndarray on top of its raw data buffer
#: (dtype/shape/strides metadata in the pickle head)
_NDARRAY_OVERHEAD = 128


@dataclass
class IoMeter:
    """Process-local tally of how data-plane bytes entered this process.

    ``mmap_reads`` counts chunk reads served as zero-copy views over an
    ``mmap`` (or other pre-existing buffer); ``bytes_copied`` counts
    payload bytes materialized into process-private memory on the read
    path — eager whole-file reads, broadcast-cache localizations,
    driver-relayed chunks.  Decoding object *heads* (pickle metadata) is
    not counted; the meter answers "how many payload bytes were copied",
    the quantity the zero-copy data plane drives toward zero.

    Workers snapshot the meter around each task and report the delta in
    their task info, which the driver folds into
    :class:`~repro.mapreduce.stats.EngineStats`.
    """

    mmap_reads: int = 0
    bytes_copied: int = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.mmap_reads, self.bytes_copied)

    def since(self, snapshot: tuple[int, int]) -> tuple[int, int]:
        """(mmap_reads, bytes_copied) accumulated since ``snapshot``."""
        return (self.mmap_reads - snapshot[0], self.bytes_copied - snapshot[1])


#: the process-wide meter (one per worker process; single-threaded tasks)
io_meter = IoMeter()


@dataclass(frozen=True)
class SizedPayload:
    """A stand-in for a payload of ``size_bytes`` bytes.

    The paper's experiments only depend on element *sizes* (500 KB blobs,
    etc.); materializing gigabytes of random bytes would make simulation
    needlessly slow.  A ``SizedPayload`` is accounted at its declared size
    by :func:`record_size` while costing a few dozen real bytes.  ``tag``
    distinguishes payloads in tests.
    """

    size_bytes: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"size must be non-negative, got {self.size_bytes}")


def declared_size(obj: Any) -> int | None:
    """The declared size of an object tree containing SizedPayloads, if any.

    Returns None when the object declares nothing (then the codec measures
    the real encoded size).  Containers sum their children's declarations
    plus a small per-item overhead so mixed trees stay roughly honest.
    """
    if isinstance(obj, SizedPayload):
        return obj.size_bytes
    if isinstance(obj, (list, tuple)):
        total = 0
        found = False
        for item in obj:
            child = declared_size(item)
            if child is not None:
                found = True
                total += child
            else:
                total += _quick_size(item)
        return total if found else None
    if isinstance(obj, dict):
        total = 0
        found = False
        for key, value in obj.items():
            child = declared_size(value)
            if child is not None:
                found = True
                total += child + _quick_size(key)
            else:
                total += _quick_size(key) + _quick_size(value)
        return total if found else None
    if hasattr(obj, "payload"):  # Element-like: payload + result map
        child = declared_size(obj.payload)
        if child is not None:
            extra = 0
            results = getattr(obj, "results", None)
            if isinstance(results, dict):
                extra = 16 * len(results)  # 8 B id + 8 B result, per §3
            return child + extra + 8  # + element id
    return None


def _pickle_facts(obj: Any) -> tuple[int, bool]:
    """Pickled size of ``obj``, and whether a :class:`SizedPayload` may sit inside.

    Pickle spells a class's name out where it first occurs, so finding
    the name in the bytes is a necessary condition for a declaration
    anywhere inside ``obj`` (by that class; a subclass is recognised only
    if its own name contains ``SizedPayload``).  An Element-like object
    declares through its payload alone (:func:`declared_size`), so one
    around a plain payload is cleared without scanning the payload's bytes.
    """
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    subject = obj if isinstance(obj, (list, tuple, dict)) else getattr(obj, "payload", obj)
    return len(data), _plain_size(subject) is None and b"SizedPayload" in data


#: Memoized :func:`_pickle_facts` for hashable objects.  Shuffle accounting
#: calls :func:`record_size` once per record per phase; real workloads emit
#: the same key/payload *shapes* over and over (task ids, element ids,
#: repeated tuples), so the facts of a hashable object are cached by value.
#: Unhashable objects (dicts, lists, most mutable payloads) never reach it.
_hashable_pickle_facts = lru_cache(maxsize=65536)(_pickle_facts)


def _measured(obj: Any) -> tuple[int, bool]:
    """:func:`_pickle_facts`, memoized where possible; ``(64, True)`` when unpicklable."""
    try:
        return _hashable_pickle_facts(obj)
    except TypeError:  # unhashable: measure directly, no memo
        try:
            return _pickle_facts(obj)
        except Exception:
            return 64, True
    except Exception:
        return 64, True


def _plain_size(obj: Any) -> int | None:
    """Cheap size of a childless plain object (id, float, string, array); else None."""
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, np.ndarray):
        # Raw buffer + metadata, without pickling the array to count it.
        return int(obj.nbytes) + _NDARRAY_OVERHEAD
    return None


def _quick_size(obj: Any) -> int:
    """Size estimate of one object: cheap for plain ones, pickled otherwise."""
    size = _plain_size(obj)
    return _measured(obj)[0] if size is None else size


def record_size(key: Any, value: Any) -> int:
    """Accounting size in bytes of one key/value record.

    A value that states its own ``size_bytes`` (a :class:`SizedPayload`, a
    working-set block that priced itself when it was built) is taken at
    its word; declared sizes deeper inside (SizedPayload trees) win next;
    otherwise the pickled size is measured.  This is the quantity behind
    the engine's SHUFFLE_BYTES and MAP_OUTPUT_BYTES counters.

    The value is pickled once; :func:`declared_size` walks it entry by
    entry only when the bytes say a declaration may be inside.
    """
    value_size = _plain_size(value)
    if value_size is None:
        value_size = getattr(value, "size_bytes", None)
    if value_size is None:
        value_size, may_declare = _measured(value)
        if may_declare:
            declared = declared_size(value)
            if declared is not None:
                value_size = declared
    return _quick_size(key) + value_size


def estimate_element_size(dataset: Sequence[Any], sample: int = 8) -> int:
    """Pickled size of a small sample's mean element, in bytes (min 1).

    Honors :class:`SizedPayload` declarations via the same accounting the
    engine uses.
    """
    if not dataset:
        raise ValueError("cannot estimate element size of an empty dataset")
    sizes = []
    step = max(1, len(dataset) // sample)
    for index in range(0, len(dataset), step):
        payload = dataset[index]
        declared = declared_size(payload)
        if declared is not None:
            sizes.append(declared)
        else:
            sizes.append(len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)))
        if len(sizes) >= sample:
            break
    return max(1, sum(sizes) // len(sizes))


def _encode_with_buffers(obj: Any) -> bytes:
    """Protocol-5 encode with ndarray buffers framed out-of-band.

    Objects without out-of-band buffers keep the plain pickle layout
    byte-for-byte; anything contributing :class:`pickle.PickleBuffer`
    payloads (ndarrays, mainly) gets the framed layout so raw data is
    joined into the wire bytes exactly once, never copied through the
    pickle stream itself.
    """
    buffers: list[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    if not buffers:
        return head
    try:
        raws = [buffer.raw() for buffer in buffers]
    except BufferError:
        # A non-contiguous buffer cannot be framed raw; fall back to the
        # in-band layout (pickle copies, correctness unaffected).
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    parts: list[Any] = [_BUFFER_MAGIC, struct.pack("<I", len(raws))]
    for raw in raws:
        parts.append(struct.pack("<Q", raw.nbytes))
        parts.append(raw)
    parts.append(head)
    return b"".join(parts)


def _decode_with_buffers(data: bytes | memoryview) -> Any:
    """Decode either wire layout; framed buffers are zero-copy views."""
    view = memoryview(data)
    if bytes(view[: len(_BUFFER_MAGIC)]) != _BUFFER_MAGIC:
        return pickle.loads(view)
    offset = len(_BUFFER_MAGIC)
    (count,) = struct.unpack_from("<I", view, offset)
    offset += 4
    buffers: list[memoryview] = []
    for _ in range(count):
        (length,) = struct.unpack_from("<Q", view, offset)
        offset += 8
        buffers.append(view[offset : offset + length])
        offset += length
    return pickle.loads(view[offset:], buffers=buffers)


def encode_records(records: list[tuple[Any, Any]]) -> bytes:
    """Encode one shuffle partition chunk (a record list) to wire bytes.

    Map tasks pre-encode their partitions so the driver can gather and
    forward chunks to reduce tasks *without ever decoding them* — the
    streaming-shuffle half of the persistent-pool engine.  Chunks carrying
    ndarray payloads use the framed out-of-band buffer layout (see module
    docstring); anything else stays plain pickle.
    """
    return _encode_with_buffers(records)


def decode_records(data: bytes | memoryview) -> list[tuple[Any, Any]]:
    """Decode a partition chunk produced by :func:`encode_records`.

    Accepts the wire ``bytes`` or a view over them (an ``mmap``'d spill
    file, a shared-memory segment); framed ndarray payloads come back as
    zero-copy views over whatever buffer ``data`` wraps.
    """
    return _decode_with_buffers(data)


def read_chunk_view(path: str | Path) -> memoryview:
    """Zero-copy view of a chunk file, backed by a private ``mmap``.

    The mapping stays alive for as long as the returned view (or any
    record decoded out of it) is referenced; unlinking the file under a
    live mapping is safe on POSIX, so spill-directory cleanup never has
    to wait for readers.  Falls back to an eager (metered) read where the
    file cannot be mapped — empty files, filesystems without mmap.
    """
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty file or unmappable fs
            data = handle.read()
            io_meter.bytes_copied += len(data)
            return memoryview(data)
    io_meter.mmap_reads += 1
    return memoryview(mapped)


# ---------------------------------------------------------------------------
# Checksummed spill chunks (SPC1)
# ---------------------------------------------------------------------------
#
# Every file the engine reads back is an SPC1 file: shuffle spill files
# (the job journal resumes from them), extsort runs and the journal's job
# spec.  A file holds one or more *segments* back to back — a spill file
# one per non-empty partition of its producing task, an extsort run one
# per chunk of sorted records, the spec exactly one — each an integrity
# header in front of its payload::
#
#     offset  size  field
#     ------  ----  -----------------------------------------------
#          0     4  magic  b"SPC1"
#          4     1  flags  (always 0x01: payload CRC present)
#          5     4  crc32  of the payload  (<I, zlib.crc32 & 0xFFFFFFFF)
#          9     8  payload length in bytes  (<Q)
#         17     …  payload (NPB1-framed or plain-pickle record chunk,
#                   or the pickled job spec)
#
# Where a segment starts and how long its payload is travels in the
# writer's manifest, so a reader verifies exactly its own segment and
# damage to one segment leaves its neighbours readable.
#
# CRC32C would be the Hadoop-faithful choice but needs a C extension the
# container doesn't ship, so the checksum is ``zlib.crc32`` (the
# documented fallback).  The flags byte is a constant: every segment is
# checksummed, so a header saying otherwise is damage, not a format.

_SPILL_MAGIC = b"SPC1"
_SPILL_FLAG_CRC = 0x01
_SPILL_HEADER = struct.Struct("<4sBIQ")

#: size of the SPC1 header prefixed to every spill payload
SPILL_HEADER_BYTES = _SPILL_HEADER.size

def spill_crc(data: bytes | memoryview) -> int:
    """Checksum of one spill payload (CRC32; see module note on CRC32C)."""
    return zlib.crc32(data) & 0xFFFFFFFF


class SpillCorruptionError(RuntimeError):
    """An SPC1 segment failed its integrity check (bad CRC, truncation,
    bad framing) — in a shuffle spill file, an extsort run or a job spec.

    Corruption of a *published* spill file is not the reading task's
    fault and cannot be cured by re-running the reader, so the driver's
    attempt tracker must not burn retry budget on it
    (``task_retryable = False``); the driver instead quarantines the
    segment (``path`` + ``offset`` name it) and re-executes the upstream
    map attempt that produced it.
    """

    #: read by ``AttemptTracker.fail``: re-raise instead of retrying
    task_retryable = False

    def __init__(self, path: str, reason: str, offset: int = 0) -> None:
        super().__init__(f"spill file {path} @{offset}: {reason}")
        self.path = str(path)
        self.reason = reason
        self.offset = offset

    def __reduce__(self):  # survive the process boundary with fields intact
        return (type(self), (self.path, self.reason, self.offset))


def write_spill_segments(
    path: str | Path, payloads: Iterable[bytes], *, durable: bool = False
) -> list[tuple[int, int]]:
    """Atomically publish ``payloads`` as one spill file, a checksummed
    segment each; returns every segment's ``(payload_bytes, offset)``.

    Writers can be killed mid-write (injected worker kills, hang kills,
    pool restarts, a dying driver), so the bytes go to a sibling temp file
    that is published by atomic rename — a file exists complete or not at
    all — and is removed if a write raises.  ``payloads`` is consumed
    lazily (one encoded chunk alive at a time).  ``durable=True`` fsyncs
    before the rename — journaled engines need the bytes on disk before
    the journal records the manifest, or a driver crash could leave a
    journal that promises files the page cache never flushed.
    """
    target = os.fspath(path)
    tmp = target + ".tmp"
    segments: list[tuple[int, int]] = []
    offset = 0
    try:
        with open(tmp, "wb") as handle:
            for payload in payloads:
                header = (_SPILL_MAGIC, _SPILL_FLAG_CRC, spill_crc(payload), len(payload))
                handle.write(_SPILL_HEADER.pack(*header))
                handle.write(payload)
                segments.append((len(payload), offset))
                offset += SPILL_HEADER_BYTES + len(payload)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    os.replace(tmp, target)
    return segments


def write_spill_chunk(path: str | Path, payload: bytes, *, durable: bool = False) -> int:
    """Publish a one-segment SPC1 file (the journal's job spec); returns bytes written."""
    write_spill_segments(path, [payload], durable=durable)
    return SPILL_HEADER_BYTES + len(payload)


def read_spill_chunk(
    path: str | Path, length: int | None = None, offset: int = 0
) -> memoryview:
    """Verified zero-copy view of one segment's payload in a spill file.

    ``length``/``offset`` come from the producer's manifest entry; the
    defaults read a one-segment file whole (:func:`write_spill_chunk`).
    Only this segment is checked: header present, magic and flags, header
    length equal to the manifest's, payload as long as declared, and its CRC.
    """

    def corrupt(reason: str) -> SpillCorruptionError:
        return SpillCorruptionError(os.fspath(path), reason, offset)

    view = read_chunk_view(path)[offset:]
    if view.nbytes < SPILL_HEADER_BYTES:
        raise corrupt(f"truncated header ({view.nbytes} of {SPILL_HEADER_BYTES} bytes)")
    magic, flags, crc, stored = _SPILL_HEADER.unpack_from(view, 0)
    if magic != _SPILL_MAGIC:
        raise corrupt(f"bad magic {magic!r}")
    if flags != _SPILL_FLAG_CRC:  # a flipped flags byte must not switch the CRC off
        raise corrupt(f"unknown flags {flags:#04x}")
    payload = view[SPILL_HEADER_BYTES:]
    if length is not None:
        if stored != length:
            raise corrupt(f"header declares {stored} payload bytes, manifest {length}")
        payload = payload[:length]
    if payload.nbytes != stored:
        raise corrupt(f"truncated payload ({payload.nbytes} of {stored} bytes)")
    actual = spill_crc(payload)
    if actual != crc:
        raise corrupt(f"CRC mismatch (stored {crc:#010x}, computed {actual:#010x})")
    return payload
