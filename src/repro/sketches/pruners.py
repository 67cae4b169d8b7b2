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
over the tiles the schema requires (:func:`build_topk_taus`).

Bound comparisons carry a relative float guard (``BOUND_GUARD``): a
pair is only dropped when its bound fails the threshold by more than
the guard, so last-ulp noise in the vectorized bound arithmetic can
never flip a keep decision into a drop.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Sequence

import numpy as np

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
    tiles: Sequence[Any] | None = None,
    *,
    chunk_size: int = 256,
) -> np.ndarray:
    """Per-element upper bound on the k-th smallest true distance, by element id.

    For each element, the k-th smallest *distance upper bound* over its
    partners: at least k partners have true distance at most that value,
    so the true k-th nearest distance cannot exceed it.

    The partners are the ones ``tiles`` — a schema's universe,
    :meth:`~repro.core.scheme.DistributionScheme.required_tiles` — pairs
    an element with: a :class:`~repro.core.scheme.Triangle` gives each of
    its points the other points, a :class:`~repro.core.scheme.Cross` each
    side the other side; ``None`` is the triangle over ids ``1..v``.  Each
    (owners, partners) block is one bound matrix, in row chunks — O(pairs)
    bound arithmetic, but pure vectorized float work, orders of magnitude
    cheaper than the kernels plus shuffle it lets the run skip.  An element
    in several tiles takes the k-th smallest over all of its partners; one
    with fewer than k of them gets ``+inf``, so none of its pairs is pruned.
    """
    if suite.coords is None:
        raise ValueError(f"top-k taus need a dense distance suite, got kind={suite.kind!r}")
    if k < 1 or (tiles is None and k > suite.v - 1):
        raise ValueError(f"need 1 <= k (<= v-1 on the triangle), got k={k}, v={suite.v}")
    coords, residuals = suite.coords, suite.residuals
    sq = np.einsum("ij,ij->i", coords, coords)
    # Each element's k smallest bounds so far, over every block it owns rows in.
    best = np.full((len(coords), k), np.inf)
    for owners, partners, diagonal in _partner_blocks(tiles, suite.v):
        owners = np.asarray(owners, dtype=np.int64)
        partners = np.asarray(partners, dtype=np.int64)
        across = coords[partners].T
        for start in range(0, len(owners), chunk_size):
            rows = owners[start : start + chunk_size]
            gap = sq[rows, None] + sq[None, partners] - 2.0 * (coords[rows] @ across)
            np.maximum(gap, 0.0, out=gap)
            upper = np.sqrt(gap + (residuals[rows, None] + residuals[None, partners]) ** 2)
            if diagonal:  # an element is not its own partner
                upper[np.arange(len(rows)), np.arange(start, start + len(rows))] = np.inf
            both = np.concatenate([best[rows], upper], axis=1)
            best[rows] = np.partition(both, k - 1, axis=1)[:, :k]
    return best[:, k - 1]


def _partner_blocks(
    tiles: Sequence[Any] | None, v: int
) -> Iterator[tuple[Sequence[int], Sequence[int], bool]]:
    """``(owners, partners, diagonal)`` per side of each tile; ``diagonal``: owner a is partner a.

    Tiles are told apart by their fields, ``points`` or ``high`` / ``low``,
    so this layer imports nothing from :mod:`repro.core`.
    """
    if tiles is None:
        yield range(1, v + 1), range(1, v + 1), True
        return
    for tile in tiles:
        if hasattr(tile, "points"):
            yield tile.points, tile.points, True
        elif hasattr(tile, "high"):
            yield tile.high, tile.low, False
            yield tile.low, tile.high, False
        else:
            raise TypeError(f"top-k taus take Triangle and Cross tiles, got {type(tile).__name__}")
