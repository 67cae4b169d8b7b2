"""Pair pruners: from sound bounds to surviving candidate pairs.

A :class:`PairPruner` is the object the compute reducers consult: given
the :class:`~repro.sketches.base.SketchSuite` and an (n, 2) block of
candidate pair ids, :meth:`~PairPruner.keep_mask` marks the pairs whose
true score could still pass the objective; :meth:`~PairPruner.keep_tile`
marks every pair of a tile of ids at once, one bound matrix per tile, when
the pruner has that form (a threshold on a similarity bound; distance
bounds stay on rows, where their Gram form would cancel).  Pruners are small picklable
value objects built driver-side once per run — every task and every
retry sees the same frozen decisions.

Every pruner is sound: it never drops a pair whose true score could
clear the objective, so the pruned run's output equals the unpruned
run's.  :class:`ThresholdPruner` compares one bound with the threshold;
:class:`TopKPruner` compares a lower bound with per-element taus taken
over the pairs the schema requires (:func:`build_topk_taus`).

Bound comparisons carry a relative float guard (``BOUND_GUARD``): a
pair is only dropped when its bound fails the threshold by more than
the guard, so last-ulp noise in the vectorized bound arithmetic can
never flip a keep decision into a drop.
"""

from __future__ import annotations

import abc

import numpy as np

from .._util import kth_smallest
from .base import SketchSuite

#: relative slack applied to every bound-vs-threshold comparison
BOUND_GUARD = 1e-9

#: the PairwiseComputation pruning modes
PRUNING_MODES = ("off", "sketch")


class PairPruner(abc.ABC):
    """Decide, per candidate pair, whether the kernel must evaluate it."""

    @abc.abstractmethod
    def keep_mask(self, suite: SketchSuite, block: np.ndarray) -> np.ndarray:
        """Boolean mask over ``block`` rows; True = evaluate the pair."""

    def keep_tile(
        self, suite: SketchSuite, left: np.ndarray, right: np.ndarray
    ) -> np.ndarray | None:
        """``keep_mask`` of every ``(left[a], right[b])`` as one ``(|L|, |R|)`` matrix.

        ``None`` when the pruner has no tile form: the caller then asks
        :meth:`keep_mask` for the tile's rows.
        """
        return None


class ThresholdPruner(PairPruner):
    """Prune pairs that provably cannot pass a threshold objective.

    ``keep_below=True`` (distances, keep ``value < threshold``) drops a
    pair when its distance *lower* bound already reaches the threshold;
    ``keep_below=False`` (similarities, keep ``value > threshold``)
    drops when the similarity *upper* bound cannot reach it.  Both
    directions are sound given the suite's bounds.
    """

    def __init__(self, threshold: float, keep_below: bool):
        self.threshold = float(threshold)
        self.keep_below = keep_below

    def keep_mask(self, suite: SketchSuite, block: np.ndarray) -> np.ndarray:
        if self.keep_below:
            return suite.distance_lower(block) < self.threshold + self._guard
        return suite.similarity_upper(block) > self.threshold - self._guard

    def keep_tile(
        self, suite: SketchSuite, left: np.ndarray, right: np.ndarray
    ) -> np.ndarray | None:
        """The similarity bound's tile form; distances stay on rows (their Gram form cancels)."""
        if self.keep_below:
            return None
        return suite.similarity_upper_tile(left, right) > self.threshold - self._guard

    @property
    def _guard(self) -> float:
        return BOUND_GUARD * (1.0 + abs(self.threshold))


class TopKPruner(PairPruner):
    """Prune pairs provably outside *both* endpoints' k nearest partners.

    ``taus[i]`` is an upper bound on element i's k-th smallest true
    distance (see :func:`build_topk_taus`).  If a pair's distance lower
    bound exceeds both endpoints' taus, its true distance is strictly
    greater than each endpoint's k-th best, so neither side can select
    it — ties included, because the aggregator ranks by value before the
    id tie-break.
    """

    def __init__(self, k: int, taus: np.ndarray):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.taus = np.asarray(taus, dtype=np.float64)

    def keep_mask(self, suite: SketchSuite, block: np.ndarray) -> np.ndarray:
        lower = suite.distance_lower(block)
        tau_i = self.taus[block[:, 0]]
        tau_j = self.taus[block[:, 1]]
        guard = BOUND_GUARD * (1.0 + np.maximum(np.abs(tau_i), np.abs(tau_j)))
        return (lower <= tau_i + guard) | (lower <= tau_j + guard)


def build_topk_taus(
    suite: SketchSuite,
    k: int,
    pairs: np.ndarray | None = None,
    *,
    chunk_size: int = 256,
) -> np.ndarray:
    """Per-element upper bound on the k-th smallest true distance, by element id.

    For each element, the k-th smallest *distance upper bound* over its
    partners: at least k partners have true distance at most that value,
    so the true k-th nearest distance cannot exceed it.

    ``pairs=None`` takes the partners from the whole triangle over ids
    ``1..v``, in row chunks against all columns — O(v²) bound arithmetic,
    but pure vectorized float work, orders of magnitude cheaper than the
    kernels plus shuffle it lets the run skip.  An ``(n, 2)`` array of
    pairs takes each element's partners from those rows only (a schema's
    required pairs); an element with fewer than k of them gets ``+inf``,
    so none of its pairs is pruned.
    """
    if suite.coords is None:
        raise ValueError(
            f"top-k taus need a dense distance suite, got kind={suite.kind!r}"
        )
    if pairs is not None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        upper = suite.distance_upper(pairs)
        owners = pairs.T.ravel()
        counts = np.bincount(owners, minlength=len(suite.coords))
        grouped = np.concatenate([upper, upper])[np.argsort(owners)]
        return kth_smallest(grouped, np.cumsum(counts) - counts, counts, k)
    v = suite.v
    if not 1 <= k <= v - 1:
        raise ValueError(f"need 1 <= k <= v-1, got k={k}, v={v}")
    coords = suite.coords[1 : v + 1]
    residuals = suite.residuals[1 : v + 1]
    sq = np.einsum("ij,ij->i", coords, coords)
    taus = np.zeros(v + 1, dtype=np.float64)
    for start in range(0, v, chunk_size):
        stop = min(start + chunk_size, v)
        gap = sq[start:stop, None] + sq[None, :] - 2.0 * (
            coords[start:stop] @ coords.T
        )
        np.maximum(gap, 0.0, out=gap)
        upper = np.sqrt(
            gap + (residuals[start:stop, None] + residuals[None, :]) ** 2
        )
        # An element is not its own partner.
        upper[np.arange(stop - start), np.arange(start, stop)] = np.inf
        taus[start + 1 : stop + 1] = np.partition(upper, k - 1, axis=1)[:, k - 1]
    return taus
