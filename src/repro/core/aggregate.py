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
  neighbours, most-similar documents).

All are plain classes with data-only attributes so they cross process
boundaries intact.

An aggregator folds results and never reads a payload, which is the same
in every copy: the copies an MR run hands it carry ``payload=None``, and
the caller's :class:`~repro.core.element.PairResults` re-attaches the
payloads on the driver.
"""

from __future__ import annotations

import heapq
import operator
from typing import Any, Callable, Sequence

import numpy as np

from .._util import kth_smallest
from .element import Element, merge_copies

Aggregator = Callable[[Sequence[Element]], Element]


class ConcatAggregator:
    """Union of all copies' result maps; the default aggregation.

    A twice-evaluated pair is a scheme bug: :func:`merge_copies` raises
    :class:`~repro.core.element.DuplicatePairError` naming it.
    """

    def __call__(self, copies: Sequence[Element]) -> Element:
        return merge_copies(copies)


class ThresholdAggregator:
    """Keep only results that compare favourably against a threshold.

    ``keep_below=True`` keeps results ``< threshold`` (distances),
    ``False`` keeps ``> threshold`` (similarities).
    """

    def __init__(self, threshold: float, *, keep_below: bool = True):
        self.threshold = threshold
        self.keep_below = keep_below

    def __call__(self, copies: Sequence[Element]) -> Element:
        merged = merge_copies(copies)
        compare = operator.lt if self.keep_below else operator.gt
        merged.results = {
            partner: value
            for partner, value in merged.results.items()
            if compare(value, self.threshold)
        }
        return merged


class TopKAggregator:
    """Keep each element's k best partners.

    ``smallest=True`` keeps the k smallest values (nearest neighbours by
    distance); ``False`` the k largest (highest similarity).  Ties break on
    partner id for determinism (the lower id among the smallest, the
    higher among the largest), and a NaN ranks after every number either
    way, so the kept partners never depend on the results' order.
    """

    def __init__(self, k: int, *, smallest: bool = True):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.smallest = smallest

    def __call__(self, copies: Sequence[Element]) -> Element:
        merged = merge_copies(copies)

        def rank(item: tuple[int, Any]) -> tuple[bool, Any, int]:
            value = item[1]
            number = value == value  # NaN is unordered: rank it past the numbers
            return number != self.smallest, value if number else 0.0, item[0]

        # Heap selection is O(v log k) instead of O(v log v); nsmallest /
        # nlargest under the (value, id) key keep exactly the pairs the
        # historical full sort kept, ties included.
        select = heapq.nsmallest if self.smallest else heapq.nlargest
        merged.results = dict(select(self.k, merged.results.items(), key=rank))
        return merged


def fold_columns(
    aggregator: Aggregator, owners: np.ndarray, partners: np.ndarray, results: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``aggregator`` applied to result columns grouped by owner; ``None`` if it has no column form.

    The built-in aggregators fold whole columns, with
    exactly what their ``__call__`` keeps, in the same order: concat is
    the identity, threshold one mask, top-k (float64 results only) a
    selection, then a sort.  Each owner's run of entries longer than 2k
    is cut at its k-th best value (:func:`~repro._util.kth_smallest`,
    with NaN as ``+inf``, a key monotone in the rank); the entries no
    worse than the cut, ties included, and every entry of a shorter run
    are the candidates.  Each owner's candidates are sorted by (NaN last,
    value, partner id) — the runs of one length as the rows of one
    matrix, one row-wise ``lexsort`` — and the first k kept: what one
    sort of every entry by (owner, NaN last, value, partner id) kept, so
    a fold keeping k of an owner's n entries does O(n) work, not
    O(n log n).  Top-k needs the owners' runs in ascending order, as the
    aggregate reducer passes them.  Anything else goes element by element.
    """
    kind = type(aggregator)
    if kind is ConcatAggregator:
        return owners, partners, results
    if kind is ThresholdAggregator:
        compare = operator.lt if aggregator.keep_below else operator.gt
        keep = np.asarray(compare(results, aggregator.threshold), dtype=bool)
        return owners[keep], partners[keep], results[keep]
    if kind is not TopKAggregator or results.dtype != np.float64:
        return None
    k, unordered = aggregator.k, np.isnan(results)
    sign = 1 if aggregator.smallest else -1
    ranked = sign * np.where(unordered, 0.0, results)
    starts, lengths = _runs(owners)
    long = lengths > 2 * k  # a shorter run would gain little from the partition
    if long.any():
        keys, cut = np.where(unordered, np.inf, ranked), np.full(len(starts), np.inf)
        cut[long] = kth_smallest(keys, starts[long], lengths[long], k)
        candidate = keys <= np.repeat(cut, lengths)
        owners, partners, results, ranked, unordered = (
            column[candidate] for column in (owners, partners, results, ranked, unordered)
        )
        starts, lengths = _runs(owners)
    kept = np.minimum(lengths, k)
    slots, order = np.cumsum(kept) - kept, np.empty(kept.sum(), np.int64)
    for length in np.unique(lengths):  # the runs of one length are the rows of one matrix
        rows = np.flatnonzero(lengths == length)
        run = starts[rows, None] + np.arange(length)
        ranks = np.lexsort((sign * partners[run], ranked[run], unordered[run]), axis=-1)[:, :k]
        order[slots[rows, None] + np.arange(ranks.shape[1])] = np.take_along_axis(run, ranks, 1)
    return owners[order], partners[order], results[order]


def _runs(owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each owner's run starts in ``owners`` (grouped), and its length."""
    starts = np.r_[0, np.flatnonzero(owners[1:] != owners[:-1]) + 1]
    return starts, np.diff(starts, append=len(owners))
