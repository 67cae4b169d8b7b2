"""Pair pruners: from sound bounds to surviving candidate pairs.

A :class:`PairPruner` is the object the compute reducers consult: given
the :class:`~repro.sketches.base.SketchSuite` and an (n, 2) block of
candidate pair ids, :meth:`~PairPruner.keep_mask` marks the pairs whose
true score could still pass the objective.  Pruners are small picklable
value objects built driver-side once per run — every task and every
retry sees the same frozen decisions.

``sound`` is the contract bit: a sound pruner never drops a pair whose
true score could clear the objective, so the pruned run's output equals
the unpruned run's.  :class:`ThresholdPruner` is sound unless built in
estimate mode (MinHash margin pruning, ``exact_fallback=False``);
:class:`TopKPruner` is always sound.

Bound comparisons carry a relative float guard (``BOUND_GUARD``): a
pair is only dropped when its bound fails the threshold by more than
the guard, so last-ulp noise in the vectorized bound arithmetic can
never flip a keep decision into a drop.
"""

from __future__ import annotations

import abc

import numpy as np

from .base import SketchSuite

#: relative slack applied to every bound-vs-threshold comparison
BOUND_GUARD = 1e-9

#: the PairwiseComputation pruning modes
PRUNING_MODES = ("off", "sketch", "exact")


class PairPruner(abc.ABC):
    """Decide, per candidate pair, whether the kernel must evaluate it."""

    @property
    def sound(self) -> bool:
        """True when no pair that could pass the objective is ever dropped."""
        return True

    @abc.abstractmethod
    def keep_mask(self, suite: SketchSuite, block: np.ndarray) -> np.ndarray:
        """Boolean mask over ``block`` rows; True = evaluate the pair."""


class ThresholdPruner(PairPruner):
    """Prune pairs that provably cannot pass a threshold objective.

    ``keep_below=True`` (distances, keep ``value < threshold``) drops a
    pair when its distance *lower* bound already reaches the threshold;
    ``keep_below=False`` (similarities, keep ``value > threshold``)
    drops when the similarity *upper* bound cannot reach it.  Both
    directions are sound given the suite's bounds.

    ``estimate=True`` additionally drops pairs whose MinHash overlap
    estimate sits more than ``margin`` below the threshold — extra
    pruning with no guarantee (``sound`` turns False).
    """

    def __init__(
        self,
        threshold: float,
        *,
        keep_below: bool,
        estimate: bool = False,
        margin: float = 0.15,
    ):
        self.threshold = float(threshold)
        self.keep_below = keep_below
        self.estimate = estimate
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.margin = float(margin)

    @property
    def sound(self) -> bool:
        return not self.estimate

    def keep_mask(self, suite: SketchSuite, block: np.ndarray) -> np.ndarray:
        guard = BOUND_GUARD * (1.0 + abs(self.threshold))
        if self.keep_below:
            keep = suite.distance_lower(block) < self.threshold + guard
        else:
            keep = suite.similarity_upper(block) > self.threshold - guard
        if self.estimate and not self.keep_below and suite.signatures is not None:
            keep &= suite.estimated_jaccard(block) > self.threshold - self.margin
        return keep


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
    suite: SketchSuite, k: int, *, chunk_size: int = 256
) -> np.ndarray:
    """Per-element upper bound on the k-th smallest true distance.

    For each element, the k-th smallest *distance upper bound* over all
    partners: at least k partners have true distance at most that value,
    so the true k-th nearest distance cannot exceed it.  Computed in
    row chunks against all columns — O(v²) bound arithmetic, but pure
    vectorized float work, orders of magnitude cheaper than the kernels
    plus shuffle it lets the run skip.
    """
    if suite.coords is None:
        raise ValueError(
            f"top-k taus need a dense distance suite, got kind={suite.kind!r}"
        )
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
