"""Elements and their per-pair result lists (the storage layout of Fig. 2).

An :class:`Element` carries a unique integer id, an opaque payload, and the
results of the pairwise evaluations it has participated in so far, keyed by
the partner element's id::

    s1  <payload...>  {s2: comp(s1,s2), s3: comp(s1,s3), ...}

Because the distribution schemes replicate elements into several working
sets, multiple *copies* of an element accumulate disjoint partial result
maps; :func:`merge_copies` (used by the aggregation job, Algorithm 2) fuses
them back into one element.  A partner id appearing in two copies signals a
pair evaluated twice — a violation of the schemes' exactly-once guarantee —
and always raises :class:`DuplicatePairError`.

A run's results travel as *result blocks* — the four columns owner ids,
result counts, partner ids and results (:func:`encode_block`, the wire
form), never a payload — and reach the caller as :class:`PairResults`, a
``{eid: Element}`` mapping over those columns that builds an element, with
the caller's payload, only when it is looked up.  A run's input is
payloads, not elements: an element is otherwise built only by the
in-process reference (``run_local``), by ``run_rounds``' running fold, and
for an aggregator that is not built in.  The flattened views
(:meth:`PairResults.dense`, :meth:`PairResults.pairs`, and the adapters
:func:`results_matrix` and :func:`ordered_results` that also take plain
elements) read the columns.  Where one number serves both elements of a
pair — a symmetric run under a built-in concat or threshold — a run files
it once, under ``(max(i, j), min(i, j))``, and its :class:`PairResults`
mirrors it when read; :func:`scatter_results` is the one mirror step, for
those readers and for the runs that file both orientations.
:func:`check_pairs` is the columns' self-pair and duplicate check, worded
like the single-pair :meth:`Element.add_result`, the public per-pair API.

:func:`element_size_bytes` reproduces the §3 storage arithmetic (the
"10,000 × 500 KB elements → 6.5 GB, not 50 TB" example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np


class DuplicatePairError(RuntimeError):
    """A pair was evaluated in more than one working set."""


class PairCoverageError(RuntimeError):
    """A run's compute tasks were not given the schema's required pairs, each exactly once."""


@dataclass
class Element:
    """One dataset element: identity, payload, and accumulated pair results.

    ``eid`` is 1-indexed to match the paper's ``s1 … sv`` notation; the
    workload generators hand out contiguous ids.  ``results`` maps partner
    id → evaluation result.
    """

    eid: int
    payload: Any = None
    results: dict[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.eid < 1:
            raise ValueError(f"element ids are 1-indexed, got {self.eid}")

    def add_result(self, partner: int, value: Any) -> None:
        """Record ``comp(self, partner) = value`` (Algorithm 1's addResult)."""
        if partner == self.eid:
            raise ValueError(f"element {self.eid} paired with itself")
        if partner in self.results:
            raise DuplicatePairError(
                f"pair ({self.eid}, {partner}) evaluated more than once"
            )
        self.results[partner] = value

    def copy_without_results(self) -> "Element":
        """A fresh copy sharing the payload but with an empty result map.

        What the reference run's distribution step hands each working set,
        so that no two working sets share a result map.
        """
        return Element(self.eid, self.payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Element(eid={self.eid}, results={len(self.results)})"


def merge_copies(copies: Iterable[Element]) -> Element:
    """Fuse all copies of one element into a single element (Algorithm 2).

    Two copies carrying a result for the same partner mean a pair was
    evaluated twice, which the schemes guarantee never happens: that
    raises :class:`DuplicatePairError` naming the pair.
    """
    merged: Element | None = None
    for copy in copies:
        if merged is None:
            merged = Element(copy.eid, copy.payload, dict(copy.results))
            continue
        if copy.eid != merged.eid:
            raise ValueError(
                f"cannot merge copies of different elements "
                f"({merged.eid} vs {copy.eid})"
            )
        if merged.payload is None and copy.payload is not None:
            merged.payload = copy.payload
        if merged.results.keys().isdisjoint(copy.results):
            # What the schemes guarantee: fuse the whole copy at C level.
            merged.results.update(copy.results)
            continue
        partner = next(p for p in copy.results if p in merged.results)
        raise DuplicatePairError(f"pair ({merged.eid}, {partner}) appears in multiple copies")
    if merged is None:
        raise ValueError("merge_copies got an empty iterable")
    return merged


def element_size_bytes(
    payload_size: int,
    num_results: int,
    *,
    id_bytes: int = 8,
    result_bytes: int = 8,
) -> int:
    """Post-computation element size per the paper's §3 model.

    Each stored result costs one partner id plus one result value
    (``id_bytes + result_bytes``, 16 B with the paper's defaults), so an
    element of payload size ``payload_size`` that was compared against
    ``num_results`` partners occupies
    ``payload_size + num_results · (id_bytes + result_bytes)`` bytes.
    """
    if payload_size < 0 or num_results < 0:
        raise ValueError("sizes must be non-negative")
    return payload_size + num_results * (id_bytes + result_bytes)


def dataset_size_bytes(
    v: int,
    payload_size: int,
    *,
    with_results: bool = False,
    id_bytes: int = 8,
    result_bytes: int = 8,
) -> int:
    """Total dataset size before or after the pairwise computation (§3).

    ``with_results=True`` adds the full result lists (v−1 partners per
    element) — the paper's example: v = 10,000 and payload 500 KB gives
    5 GB before and ≈ 6.5 GB after (instead of the 50 TB a naive quadratic
    materialization would need).
    """
    if v < 0:
        raise ValueError(f"v must be non-negative, got {v}")
    per_element = payload_size
    if with_results and v > 0:
        per_element = element_size_bytes(
            payload_size, v - 1, id_bytes=id_bytes, result_bytes=result_bytes
        )
    return v * per_element


def _same_result(a: Any, b: Any) -> bool:
    """Equality under which NaN agrees with NaN (a pair's two orientations)."""
    return a == b or (a != a and b != b)


#: a partner column's dtype by item size: unsigned up to 4 B, else int64
_PARTNER_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.int64}


def encode_block(ids: list[int], counts: list[int], partners: np.ndarray, results: Any,
                 top: int) -> tuple:
    """One result block in its wire form ``(ids, counts, partners, results)``: results only.

    ``partners`` leaves as ``bytes`` of the narrowest unsigned dtype that
    holds ``top`` (the scheme's ``v``, no smaller than any partner id;
    ``-1`` asks for int64); ``results`` as float64 ``bytes`` when it is a float64
    column, else as a list of objects.  ``ids`` and ``counts`` are Python
    int lists.  ``bytes``, not ndarrays: a pickled array costs about 127 B
    of reduce overhead per column, and blocks compare with ``==``.
    """
    if isinstance(results, np.ndarray):
        results = results.tobytes() if results.dtype == np.float64 else results.tolist()
    size = next((size for size in (1, 2, 4) if 0 <= top < 256**size), 8)
    return ids, counts, partners.astype(_PARTNER_DTYPES[size]).tobytes(), results


def element_block(elements: Sequence[Element], top: int = 0) -> tuple:
    """Elements' result maps flattened into one result block."""
    counts = [len(element.results) for element in elements]
    partners = np.fromiter(chain.from_iterable(element.results for element in elements), np.int64)
    results = list(chain.from_iterable(element.results.values() for element in elements))
    top = -1 if partners.min(initial=0) < 0 else max(top, int(partners.max(initial=0)))
    return encode_block([element.eid for element in elements], counts, partners, results, top)


def result_column(out: Any) -> np.ndarray:
    """A kernel's results as one column: an ndarray as is, a list as an object column."""
    return out if isinstance(out, np.ndarray) else np.fromiter(out, object, len(out))


def scatter_results(block: np.ndarray, forward: Any, backward: Any) -> tuple[np.ndarray, ...]:
    """Group a pair block's results by owning element, both orientations (bulk ``addResult``).

    Row k = ``(i, j)`` gives ``i`` the entry ``j → forward[k]`` and ``j``
    the entry ``i → backward[k]``: the mirror step — owners and partners
    swapped, the backward results taken — and one stable sort by owner,
    which keeps an element's entries in row order (the order the per-pair
    loop stored them).  Returns ``(owners, partners, results)``.  A
    kernel's float64 array stays one; list results (the scalar kernel's)
    become an object column, so tuple results scatter like floats.
    """
    forward, backward = result_column(forward), result_column(backward)
    results = np.empty(2 * len(block), dtype=np.result_type(forward, backward))
    results[0::2], results[1::2] = forward, backward
    owners = block.ravel()  # i0, j0, i1, j1, …: entry k's partner is entry k ^ 1's owner
    narrow = 0 <= owners.min(initial=0) and owners.max(initial=0) < 1 << 16  # a radix sort then
    order = np.argsort(owners.astype(np.uint16) if narrow else owners, kind="stable")
    return owners[order], owners[order ^ 1], results[order]


def join_results(chunks: Sequence[np.ndarray]) -> np.ndarray:
    """One result column from chunks: float64 when every non-empty chunk is, else objects."""
    chunks = [chunk for chunk in chunks if len(chunk)] or [np.empty(0)]
    floats = all(chunk.dtype == np.float64 for chunk in chunks)
    return np.concatenate(chunks, dtype=None if floats else object)


def decode_blocks(blocks: Sequence[tuple]) -> tuple[np.ndarray, ...]:
    """``(ids, counts, partners, results)`` columns of result blocks, in block order.

    The partner dtype is read off each column's length (bytes per entry).
    A block whose columns do not line up — as many ids as counts, ``n``
    (the counts' sum) partners of 1, 2, 4 or 8 bytes, ``n`` results —
    raises ``ValueError`` naming its index.
    """
    partners, results = [np.empty(0, np.int64)], []
    for number, (block_ids, block_counts, raw, values) in enumerate(blocks):
        n, floats = sum(block_counts), isinstance(values, bytes)
        size, odd = divmod(len(raw), n) if n else (1, len(raw))
        aligned = len(block_ids) == len(block_counts) and len(values) == n * (8 if floats else 1)
        if odd or size not in _PARTNER_DTYPES or not aligned:
            raise ValueError(
                f"result block {number} is malformed: {len(block_ids)} ids, {len(block_counts)} "
                f"counts summing to {n}, {len(raw)} partner bytes, {len(values)} result "
                f"{'bytes' if floats else 'objects'}"
            )
        partners.append(np.frombuffer(raw, _PARTNER_DTYPES[size]))
        results.append(np.frombuffer(values) if floats else np.fromiter(values, object, n))
    ids = np.fromiter(chain.from_iterable(block[0] for block in blocks), dtype=np.int64)
    counts = np.fromiter(chain.from_iterable(block[1] for block in blocks), np.int64, len(ids))
    return ids, counts, np.concatenate(partners, dtype=np.int64), join_results(results)


def check_pairs(owners: np.ndarray, partners: np.ndarray) -> None:
    """Raise on a self pair or a pair filed twice, as :meth:`Element.add_result` would.

    ``owners`` must be grouped by owner ascending; the message names the
    first offending entry of the lowest offending owner.
    """
    keys = owners * (int(max(owners.max(initial=0), partners.max(initial=0))) + 1) + partners
    ordered = np.sort(keys)
    if not (owners == partners).any() and not (ordered[1:] == ordered[:-1]).any():
        return
    element = Element(int(owners[0]))
    for eid, partner in zip(owners.tolist(), partners.tolist()):
        if eid != element.eid:
            element = Element(eid)
        element.add_result(partner, None)  # raises, naming the pair


class PairResults(Mapping[int, Element]):
    """A run's results as columns: ``{eid: Element}`` to a reader, numbers underneath.

    What every :class:`~repro.core.pairwise.PairwiseComputation` run
    returns.  It holds the result blocks' columns — owner ids, partner ids,
    results — and builds an element (the caller's payload, a result dict
    of Python ints and objects) the first time it is looked up; the bulk
    views read the columns without building any: :meth:`dense` (the
    ``v × v`` float matrix, ``v`` the scheme's) and :meth:`pairs` (the
    canonical ``{(i, j): result}``, i > j).  Elements iterate in block
    order.  The columns are the record: editing a built element changes
    neither view.

    ``mirrored=True`` (set by the executor alone, for a run that files
    each pair's result once, under ``(max(i, j), min(i, j))``): the
    columns hold one orientation per pair and the readers mirror it —
    :meth:`dense` writes both cells, :meth:`pairs` reads them as for
    any run (its sort finds no twins), and the first element lookup
    builds both orientations once (:func:`scatter_results`).  ``len``
    and iteration read the ids either way.
    """

    def __init__(self, blocks: Sequence[tuple], *, v: int, payloads: Mapping | None = None,
                 mirrored: bool = False):
        ids, self._counts, self._partners, self._results = decode_blocks(blocks)
        self.v, self._ids, self._mirrored = v, ids, mirrored
        self._owners = np.repeat(ids, self._counts)
        self._index = dict(zip(ids.tolist(), range(len(ids))))
        self._payloads = payloads or {}
        self._built: dict[int, Element] = {}
        self._lookup: tuple | None = None

    @classmethod
    def of(cls, elements: Mapping[int, Element] | Iterable[Element]) -> "PairResults":
        """``elements`` as columns (as is when they already are), ``v`` = how many."""
        if isinstance(elements, PairResults):
            return elements
        items = list(elements.values() if isinstance(elements, Mapping) else elements)
        return cls([element_block(items)], v=len(items), payloads={e.eid: e.payload for e in items})

    def _entries(self) -> tuple:
        """``(owners, partners, results, starts, ends)``: every entry as its owner reads it.

        The ``k``-th id's entries are ``starts[k]:ends[k]``.  Built on first
        use; a mirrored run's columns are sorted by owner and mirrored by
        one :func:`scatter_results`, so an element lists its lower partners
        in the order they were filed, then its higher ones ascending.
        """
        if self._lookup is None:
            owners, partners, results = self._owners, self._partners, self._results
            if self._mirrored:
                order = np.argsort(owners, kind="stable")
                block = np.column_stack((owners, partners))[order]
                owners, partners, results = scatter_results(block, results[order], results[order])
                starts, ends = (owners.searchsorted(self._ids, side) for side in ("left", "right"))
            else:
                ends = np.cumsum(self._counts)
                starts = ends - self._counts
            self._lookup = owners, partners, results, starts.tolist(), ends.tolist()
        return self._lookup

    def __getitem__(self, eid: int) -> Element:
        element = self._built.get(eid)
        if element is None:
            run = self._index[eid]
            _owners, partners, results, starts, ends = self._entries()
            lo, hi = starts[run], ends[run]
            results = dict(zip(partners[lo:hi].tolist(), results[lo:hi].tolist()))
            element = self._built[eid] = Element(eid, self._payloads.get(eid), results)
        return element

    def __contains__(self, eid: object) -> bool:
        return eid in self._index

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def pairs(self) -> dict[tuple[int, int], Any]:
        """``{(i, j): result}`` with i > j; a pair stored twice keeps its first value."""
        owners, partners, results = self._owners, self._partners, self._results
        high, low = np.maximum(owners, partners), np.minimum(owners, partners)
        keys = high * (int(high.max(initial=0)) + 1) + low
        order = np.argsort(keys, kind="stable")
        twin = np.flatnonzero(keys[order][1:] == keys[order][:-1])
        first, again = order[twin], order[twin + 1]
        clash = np.flatnonzero(_disagree(results[first], results[again]))
        if len(clash):
            at = first[clash[0]]
            stored = results[[at, again[clash[0]]]].tolist()
            raise _asymmetric((int(high[at]), int(low[at])), *stored)
        keep = np.ones(len(keys), dtype=bool)
        keep[again] = False
        return dict(zip(zip(high[keep].tolist(), low[keep].tolist()), results[keep].tolist()))

    def dense(self) -> np.ndarray:
        """The ``v × v`` float matrix: ``out[i-1, j-1]`` is pair (i, j), 0 where none is stored.

        A pair stored in one orientation is mirrored; stored in both, each
        cell holds its own (they agree).
        """
        v, owners, partners = self.v, self._owners, self._partners
        strays = self._ids[(self._ids < 1) | (self._ids > v)].tolist()
        outside = np.flatnonzero((partners < 1) | (partners > v))
        if strays or len(outside):
            at = outside[0] if len(outside) else None
            key = (strays[0], None) if strays else (int(owners[at]), int(partners[at]))
            raise ValueError(f"pair key {key} out of range for v={v}")
        cells = (owners - 1) * v + partners - 1
        out = np.zeros(v * v)
        if self._mirrored:  # one result per pair: no two orientations to disagree
            out[cells] = out[(partners - 1) * v + owners - 1] = self._results
            return out.reshape(v, v)
        stored = np.zeros(v * v, dtype=bool)
        out[cells], stored[cells] = self._results, True
        out, stored = out.reshape(v, v), stored.reshape(v, v)
        clash = np.flatnonzero(np.tril(stored & stored.T & _disagree(out.T, out), -1))
        if len(clash):
            i, j = divmod(int(clash[0]), v)
            raise _asymmetric((i + 1, j + 1), float(out[j, i]), float(out[i, j]))
        return np.where(stored, out, out.T)


def _disagree(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The one symmetry check: where a pair's two stored results differ (NaN agrees with NaN)."""
    if old.dtype == new.dtype == np.float64:
        return (old != new) & ~(np.isnan(old) & np.isnan(new))
    return ~np.fromiter(map(_same_result, old, new), dtype=bool, count=len(old))


def _asymmetric(pair: tuple[int, int], old: Any, new: Any) -> ValueError:
    return ValueError(f"asymmetric results for pair {pair}: {old!r} vs {new!r}")


def ordered_results(
    elements: Mapping[int, Element] | Iterable[Element],
) -> dict[tuple[int, int], Any]:
    """Flatten result maps keeping orientation: ``(i, j) → i's result for j``, unchecked."""
    owners, partners, results, _starts, _ends = PairResults.of(elements)._entries()
    return dict(zip(zip(owners.tolist(), partners.tolist()), results.tolist()))


def results_matrix(elements: Mapping[int, Element] | Iterable[Element]) -> dict[tuple[int, int], Any]:
    """:meth:`PairResults.pairs` of ``elements`` (a run's results, or Elements)."""
    return PairResults.of(elements).pairs()
