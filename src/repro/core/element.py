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
and raises :class:`DuplicatePairError` unless the caller opts out.

The compute phases write results a working set at a time
(:meth:`Element.add_results`), and the flattened views
(:func:`results_matrix`, :func:`ordered_results`, :func:`results_dense`)
read them an element at a time; the single-pair :meth:`Element.add_result`
is the public per-pair API and the path that names a bad pair.

:func:`element_size_bytes` reproduces the §3 storage arithmetic (the
"10,000 × 500 KB elements → 6.5 GB, not 50 TB" example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

import numpy as np


class DuplicatePairError(RuntimeError):
    """A pair was evaluated in more than one working set."""


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

    def add_results(self, partners: Collection[int], values: Collection[Any]) -> None:
        """Bulk :meth:`add_result`: one ``dict(zip(...))`` + ``update``.

        ``partners`` and ``values`` are aligned and must hold Python ints
        and plain result objects (what ``ndarray.tolist()`` yields, never
        numpy scalars — the map is pickled into shuffle records).  The
        same checks as the single-pair call apply to the whole block; a
        block that fails one is replayed pair by pair so the exception
        names the offending pair.
        """
        new = dict(zip(partners, values, strict=True))
        if (
            len(new) == len(partners)
            and self.eid not in new
            and new.keys().isdisjoint(self.results)
        ):
            self.results.update(new)
            return
        for partner, value in zip(partners, values):
            self.add_result(partner, value)  # raises, naming the pair

    def copy_without_results(self) -> "Element":
        """A fresh copy sharing the payload but with an empty result map.

        This is what the distribution map phase emits: each working set gets
        its own copy so that parallel reducers never share mutable state.
        """
        return Element(self.eid, self.payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Element(eid={self.eid}, results={len(self.results)})"


def merge_copies(
    copies: Iterable[Element],
    *,
    on_duplicate: str = "error",
    combine: Callable[[Any, Any], Any] | None = None,
) -> Element:
    """Fuse all copies of one element into a single element (Algorithm 2).

    ``on_duplicate`` controls what happens when two copies both carry a
    result for the same partner (which the schemes guarantee never happens):

    - ``"error"``   — raise :class:`DuplicatePairError` (default; catches
      scheme bugs in tests),
    - ``"keep"``    — keep the first value seen,
    - ``"combine"`` — apply ``combine(old, new)``.
    """
    if on_duplicate not in ("error", "keep", "combine"):
        raise ValueError(f"unknown duplicate policy: {on_duplicate!r}")
    if on_duplicate == "combine" and combine is None:
        raise ValueError("on_duplicate='combine' requires a combine function")

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
        for partner, value in copy.results.items():
            if partner in merged.results:
                if on_duplicate == "error":
                    raise DuplicatePairError(
                        f"pair ({merged.eid}, {partner}) appears in multiple copies"
                    )
                if on_duplicate == "combine":
                    merged.results[partner] = combine(merged.results[partner], value)  # type: ignore[misc]
                # "keep": leave the existing value
            else:
                merged.results[partner] = value
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


def make_elements(payloads: Iterable[Any]) -> list[Element]:
    """Wrap raw payloads into elements with ids 1, 2, 3, …"""
    return [Element(i + 1, payload) for i, payload in enumerate(payloads)]


def _elements_by_id(dataset: Sequence[Any]) -> dict[int, Element]:
    """``{eid: Element}`` from elements (copied, results kept) or raw payloads."""
    if dataset and isinstance(dataset[0], Element):
        return {e.eid: Element(e.eid, e.payload, dict(e.results)) for e in dataset}
    return {element.eid: element for element in make_elements(dataset)}


def _as_list(elements: Mapping[int, Element] | Iterable[Element]) -> list[Element]:
    return list(elements.values()) if isinstance(elements, Mapping) else list(elements)


def _same_result(a: Any, b: Any) -> bool:
    """Equality under which NaN agrees with NaN (a pair's two orientations)."""
    return a == b or (a != a and b != b)


def ordered_results(
    elements: Mapping[int, Element] | Iterable[Element],
) -> dict[tuple[int, int], Any]:
    """Flatten result maps keeping orientation: ``(i, j) → i's result for j``.

    The non-symmetric counterpart of :func:`results_matrix` — no symmetry
    check, both orientations kept as distinct keys.
    """
    out: dict[tuple[int, int], Any] = {}
    for element in _as_list(elements):
        results = element.results
        out.update(zip(zip(repeat(element.eid), results), results.values()))
    return out


def results_matrix(elements: Mapping[int, Element] | Iterable[Element]) -> dict[tuple[int, int], Any]:
    """Flatten per-element result maps into one canonical (i>j) pair map.

    Verifies symmetry on the way: if both orientations of a pair are stored
    they must agree (NaN agrees with NaN); the first value seen for a pair
    is the one kept.  Each element's entries go in with one C-level
    ``map(out.setdefault, …)``; keys reuse the stored id objects, which
    measured faster than building them from id arrays (fresh ints per key).
    """
    out: dict[tuple[int, int], Any] = {}
    for element in _as_list(elements):
        eid, results = element.eid, element.results
        keys = [(eid, partner) if eid > partner else (partner, eid) for partner in results]
        values = list(results.values())
        kept = list(map(out.setdefault, keys, values))
        if kept != values:  # list equality short-cuts on identity, so NaN may land here
            for key, old, value in zip(keys, kept, values):
                if not _same_result(old, value):
                    raise ValueError(
                        f"asymmetric results for pair {key}: {old!r} vs {value!r}"
                    )
    return out


def results_dense(elements: Mapping[int, Element] | Iterable[Element]) -> np.ndarray:
    """Dense symmetric view of float results: ``out[i-1, j-1]`` is pair (i, j).

    The array counterpart of :func:`results_matrix` over elements ``1..v``
    (``v`` = number of elements): one row write per element instead of one
    dict entry per pair.  A pair stored in one orientation only is
    mirrored; stored in both, the orientations must agree (NaN agrees with
    NaN); stored in neither — and the diagonal — reads 0.  Ids outside
    ``1..v`` raise ``ValueError``.
    """
    items = _as_list(elements)
    v = len(items)
    out = np.zeros((v, v), dtype=float)
    stored = np.zeros((v, v), dtype=bool)
    for element in items:
        results = element.results
        partners = np.fromiter(results, dtype=np.int64, count=len(results))
        outside = partners[(partners < 1) | (partners > v)]
        if outside.size or not 1 <= element.eid <= v:
            partner = int(outside[0]) if outside.size else None
            raise ValueError(f"pair key {(element.eid, partner)} out of range for v={v}")
        row, cols = element.eid - 1, partners - 1
        out[row, cols] = np.fromiter(results.values(), dtype=float, count=len(results))
        stored[row, cols] = True
    mirrored = out.T
    agree = (out == mirrored) | (np.isnan(out) & np.isnan(mirrored))
    clash = stored & stored.T & ~agree
    if clash.any():
        i, j = np.argwhere(clash)[-1].tolist()  # last in row-major order: i > j
        raise ValueError(
            f"asymmetric results for pair {(i + 1, j + 1)}: "
            f"{float(out[j, i])!r} vs {float(out[i, j])!r}"
        )
    return np.where(stored, out, mirrored)
