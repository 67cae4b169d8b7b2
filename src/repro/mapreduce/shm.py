"""Shared-memory working-set segments: one materialization per machine.

The paper's cost model is dominated by replicating the working set to
the tasks that evaluate it; PR 4 took the driver out of the payload
path, and this module removes the remaining single-box waste — *copies*.
The default data plane already shares ndarray payloads: workers map the
job's NPB1-framed broadcast file and read them as views over the page
cache.  The shared data plane (``MultiprocessEngine(data_plane="shm")``) materializes each
distinct cache object **once per machine** into a
``multiprocessing.shared_memory`` segment and ships only a tiny
:class:`SegmentRef` in the job broadcast; workers attach on demand and
decode NPB1-framed payloads as **read-only zero-copy views** over the
segment (the out-of-band buffer codec from
:mod:`repro.mapreduce.serialization`).  Replication factor per machine: 1.

Driver side, a :class:`SegmentHost` owns the segments.  Entries are
keyed by the identity of the cache object and **refcounted**, so a job
chain that attaches the same cache dict to several jobs (the cached
pairwise pipeline does exactly this) shares one segment across all of
them; the segment is unlinked when the last job releases it or when the
engine closes.  After a pool crash the host can :meth:`~SegmentHost.revive`
segments that disappeared (re-encoded from the retained source object
under the *same* name, so already-pickled task specs keep working).

Worker side, :func:`attach_object` attaches and decodes each segment at
most once per process.  Pool workers share the driver's
``multiprocessing.resource_tracker`` process (its fd is inherited across
fork and passed through spawn), and the tracker keeps *sets* of names —
so a worker's attach-time registration is a no-op duplicate of the
driver's create-time one, and the driver's ``unlink`` is the single
unregister.  Nothing worker-side may unregister: that would strip the
shared entry and make the driver's later unlink trip a tracker
``KeyError``.

Non-buffer payloads (plain pickle layout) still decode object-by-object
per worker — Python objects cannot be shared — but the wire bytes they
decode *from* are the shared segment, so no intermediate copy is made
and the ``bytes_copied`` meter stays flat.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field
from typing import Any

from .serialization import _decode_with_buffers, _encode_with_buffers

#: prefix of every segment name this module creates; the lifecycle tests
#: scan ``/dev/shm`` for it to prove nothing leaked.
SEGMENT_PREFIX = "repro-shm"


@dataclass(frozen=True)
class SegmentRef:
    """Wire-sized handle to a shared segment: name + payload byte count.

    ``nbytes`` is the encoded payload length — the segment itself may be
    rounded up to a page multiple, so decoding slices the buffer to
    exactly this many bytes.
    """

    name: str
    nbytes: int


def shm_available() -> bool:
    """Probe whether POSIX shared memory actually works here.

    Some containers mount no ``/dev/shm`` (or a zero-sized one); the
    engine downgrades to the default data plane instead of failing the
    first job.  The probe creates and immediately unlinks a minimal
    segment, so it is safe to call repeatedly.
    """
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=1)
        probe.close()
        probe.unlink()
        return True
    except Exception:
        return False


def _segment_name() -> str:
    """Unique segment name: prefix + pid + random suffix (never reused)."""
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:12]}"


def _create_segment(name: str, data: bytes):
    """Create a segment under ``name`` and copy ``data`` into it once."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=max(1, len(data)), name=name)
    segment.buf[: len(data)] = data
    return segment


@dataclass
class _Entry:
    """One hosted segment: the OS handle, its ref, and who still needs it."""

    source: Any  # strong ref: keeps id() stable and enables revive()
    segment: Any
    ref: SegmentRef
    refcount: int = 0


@dataclass
class SegmentHost:
    """Driver-side owner of shared-memory segments, keyed by cache object.

    ``materialize`` is idempotent per cache object: the first caller pays
    the encode + one copy into shared memory, later callers (other jobs
    broadcasting the same cache) bump a refcount.  ``release`` unlinks at
    refcount zero; ``close`` unlinks everything left (idempotent, called
    from the engine's GC finalizer too).
    """

    _entries: dict[int, _Entry] = field(default_factory=dict)
    _uid_to_key: dict[str, int] = field(default_factory=dict)

    def materialize(self, uid: str, cache: Any) -> tuple[SegmentRef, int]:
        """Ensure ``cache`` lives in a shared segment; account it to ``uid``.

        Returns ``(ref, created_bytes)`` where ``created_bytes`` is the
        segment size when this call actually materialized one and 0 when
        it joined an existing segment.
        """
        key = id(cache)
        entry = self._entries.get(key)
        created = 0
        if entry is None:
            data = _encode_with_buffers(cache)
            segment = _create_segment(_segment_name(), data)
            entry = _Entry(
                source=cache,
                segment=segment,
                ref=SegmentRef(name=segment.name, nbytes=len(data)),
            )
            self._entries[key] = entry
            created = len(data)
        entry.refcount += 1
        self._uid_to_key[uid] = key
        return entry.ref, created

    def release(self, uid: str) -> None:
        """Drop ``uid``'s claim; unlink the segment when nobody holds it."""
        key = self._uid_to_key.pop(uid, None)
        if key is None:
            return
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.refcount -= 1
        if entry.refcount <= 0:
            del self._entries[key]
            _destroy(entry.segment)

    def revive(self) -> int:
        """Recreate segments that vanished (e.g. swept by an external
        tracker after a worker crash); returns how many were rebuilt.

        Rebuilt segments keep their original name and contents, so task
        specs already pickled with the old :class:`SegmentRef` re-attach
        transparently after the pool respawns.
        """
        rebuilt = 0
        from multiprocessing import shared_memory

        for entry in self._entries.values():
            try:
                probe = shared_memory.SharedMemory(name=entry.ref.name)
                probe.close()
                continue
            except FileNotFoundError:
                pass
            except Exception:  # pragma: no cover - platform-specific probes
                continue
            data = _encode_with_buffers(entry.source)
            entry.segment = _create_segment(entry.ref.name, data)
            rebuilt += 1
        return rebuilt

    def close(self) -> None:
        """Unlink every remaining segment (idempotent)."""
        entries = list(self._entries.values())
        self._entries.clear()
        self._uid_to_key.clear()
        for entry in entries:
            _destroy(entry.segment)


def _destroy(segment: Any) -> None:
    """Close and unlink one segment, tolerating an already-gone file."""
    try:
        segment.close()
    except Exception:  # pragma: no cover - BufferError from exported views
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:  # pragma: no cover - defensive
        pass


# -- worker side ---------------------------------------------------------------

#: segments this process has attached and decoded, keyed by segment name.
#: Values keep the SharedMemory handle alive alongside the decoded object
#: (whose ndarrays are views into the mapping).
_ATTACHED: dict[str, tuple[Any, Any]] = {}

#: most-recently-attached segments kept per worker; older entries are
#: dropped (their mappings are reclaimed once no decoded view survives)
_ATTACH_CAP = 8

#: handles evicted while their decoded views were still alive.  Closing a
#: SharedMemory whose buffer is still exported raises BufferError — and
#: letting its __del__ try instead spews "Exception ignored" tracebacks.
#: Parking the handle here keeps the finalizer disarmed; later sweeps
#: retry the close once the views are gone.
_ZOMBIES: list[Any] = []


def _drop_attachment(name: str) -> None:
    segment, _obj = _ATTACHED.pop(name)
    _ZOMBIES.append(segment)
    _sweep_zombies()


def _sweep_zombies() -> None:
    survivors = []
    for segment in _ZOMBIES:
        try:
            segment.close()
        except BufferError:
            survivors.append(segment)
    _ZOMBIES[:] = survivors


def attach_object(ref: SegmentRef) -> Any:
    """Attach ``ref``'s segment and decode its payload (once per process).

    The decoded object's ndarray payloads are **read-only views** over
    the shared mapping — nothing is copied.  Raises ``FileNotFoundError``
    when the segment no longer exists (surfaces as an ordinary task
    failure; the driver revives segments on pool restart).
    """
    cached = _ATTACHED.get(ref.name)
    if cached is not None:
        return cached[1]
    from multiprocessing import shared_memory

    # Attaching re-registers the name with the (shared) resource tracker;
    # that is a set no-op there, and cleanup stays with the driver's
    # unlink — see the module docstring.
    segment = shared_memory.SharedMemory(name=ref.name)
    view = segment.buf[: ref.nbytes].toreadonly()
    obj = _decode_with_buffers(view)
    _ATTACHED[ref.name] = (segment, obj)
    while len(_ATTACHED) > _ATTACH_CAP:
        _drop_attachment(next(iter(_ATTACHED)))
    return obj


def detach_object(ref: SegmentRef) -> None:
    """Forget ``ref``'s attachment, if any: the job that brought it was released."""
    if ref.name in _ATTACHED:
        _drop_attachment(ref.name)


def detach_all() -> None:
    """Drop every cached attachment (test hook; workers rely on the cap)."""
    for name in list(_ATTACHED):
        _drop_attachment(name)
    _sweep_zombies()
