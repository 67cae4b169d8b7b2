"""Result aggregation strategies (Algorithm 2's ``aggregateResults``).

The second MR job groups all copies of an element and applies an
application-defined aggregation (§4).  An aggregator is a picklable
callable ``list[Element] → Element``; the strategies here cover the
applications the paper motivates:

- :class:`ConcatAggregator` — union of the copies' partial result maps
  (the generic case; duplicate partners indicate a scheme bug and raise);
- :class:`ThresholdAggregator` — keep only results passing a threshold,
  e.g. DBSCAN's "distance below ε" pruning (§3's note that some
  applications prune uninteresting evaluations);
- :class:`TopKAggregator` — keep each element's k best partners (nearest
  neighbours, most-similar documents);
- :class:`ReduceAggregator` — fold all results into a single value per
  element (e.g. row of a covariance matrix reduced to a norm).

All are plain classes with data-only attributes so they cross process
boundaries intact.

**``needs_payload``.**  An aggregator that never reads ``copy.payload``
declares ``needs_payload = False``; the executor then ships result maps
only on the way home and re-attaches the caller's payloads driver-side
(docs/API.md, "Payload routing").  Everything here declares it; a callable
without the attribute is assumed to read payloads and gets them.
"""

from __future__ import annotations

import heapq
import operator
from typing import Any, Callable, Iterable, Sequence

from .element import Element, merge_copies

Aggregator = Callable[[Sequence[Element]], Element]


class ConcatAggregator:
    """Union of all copies' result maps; the default aggregation.

    ``on_duplicate`` follows :func:`repro.core.element.merge_copies`:
    "error" (default) treats a twice-evaluated pair as a bug.
    """

    needs_payload = False

    def __init__(self, on_duplicate: str = "error"):
        self.on_duplicate = on_duplicate

    def __call__(self, copies: Sequence[Element]) -> Element:
        return merge_copies(copies, on_duplicate=self.on_duplicate)


class ThresholdAggregator:
    """Keep only results that compare favourably against a threshold.

    ``keep_below=True`` keeps results ``< threshold`` (distances),
    ``False`` keeps ``> threshold`` (similarities).  ``key`` extracts the
    comparable magnitude from a result value (identity by default).
    """

    needs_payload = False

    def __init__(
        self,
        threshold: float,
        *,
        keep_below: bool = True,
        key: Callable[[Any], float] | None = None,
    ):
        self.threshold = threshold
        self.keep_below = keep_below
        self.key = key

    def __call__(self, copies: Sequence[Element]) -> Element:
        merged = merge_copies(copies)
        compare = operator.lt if self.keep_below else operator.gt
        extract = self.key or (lambda value: value)
        merged.results = {
            partner: value
            for partner, value in merged.results.items()
            if compare(extract(value), self.threshold)
        }
        return merged


class TopKAggregator:
    """Keep each element's k best partners.

    ``smallest=True`` keeps the k smallest values (nearest neighbours by
    distance); ``False`` the k largest (highest similarity).  Ties break on
    partner id for determinism.
    """

    needs_payload = False

    def __init__(
        self,
        k: int,
        *,
        smallest: bool = True,
        key: Callable[[Any], float] | None = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.smallest = smallest
        self.key = key

    def __call__(self, copies: Sequence[Element]) -> Element:
        merged = merge_copies(copies)
        extract = self.key or (lambda value: value)
        # Heap selection is O(v log k) instead of O(v log v); nsmallest /
        # nlargest under the (value, id) key keep exactly the pairs the
        # historical full sort kept, ties included.
        select = heapq.nsmallest if self.smallest else heapq.nlargest
        ranked = select(
            self.k,
            merged.results.items(),
            key=lambda item: (extract(item[1]), item[0]),
        )
        merged.results = dict(ranked)
        return merged


class ReduceAggregator:
    """Fold all of an element's results into one value under key ``name``.

    After merging, ``results`` is replaced by ``{0: folded}`` where
    ``folded = reduce(fn, values, initial)`` — partner identity is
    discarded, which suits per-element summaries (counts, sums, extremes).
    Partner id 0 never collides with real 1-indexed elements.

    ``needs_payload`` declares whether the fold reads the element's
    payload.  It defaults to False — a pure fold over result values.
    Pass True when ``fn`` inspects payloads.
    """

    def __init__(
        self,
        fn: Callable[[Any, Any], Any],
        initial: Any = None,
        *,
        needs_payload: bool = False,
    ):
        self.fn = fn
        self.initial = initial
        self.needs_payload = needs_payload

    def __call__(self, copies: Sequence[Element]) -> Element:
        merged = merge_copies(copies)
        values: Iterable[Any] = (
            value for _partner, value in sorted(merged.results.items())
        )
        folded = self.initial
        first = folded is None
        for value in values:
            if first:
                folded = value
                first = False
            else:
                folded = self.fn(folded, value)
        merged.results = {0: folded}
        return merged


def count_neighbors(copies: Sequence[Element]) -> Element:
    """Tiny ready-made aggregator: result map → ``{0: partner count}``."""
    merged = merge_copies(copies)
    merged.results = {0: len(merged.results)}
    return merged


count_neighbors.needs_payload = False
