"""DBSCAN on top of parallel pairwise distances (paper §1's first example).

DBSCAN (Ester et al., KDD-96) needs, for every point, its ε-neighbourhood —
exactly a pairwise distance computation with threshold pruning (the §3 note
that "applications (like DBSCAN) may also allow to prune some results ...
e.g., a distance to be less than a threshold").  The split here mirrors
that:

1. the *distance phase* runs through
   :func:`~repro.core.runner.auto_pairwise` with a threshold objective
   keeping only partners within ε, under any distribution scheme;
2. the *clustering phase* is classic DBSCAN over the pruned neighbour
   lists: core points (≥ min_pts points in their ε-ball, themselves
   included), clusters as connected components of core points, border
   points adopted by a neighbouring core's cluster, the rest noise.

:func:`dbscan_reference` is the single-machine oracle used by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.runner import auto_pairwise
from ..core.scheme import DistributionScheme
from ..kernels import register_comp
from ..sketches import register_sketch

NOISE = -1


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric pair function: the L2 distance between two points."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(math.sqrt(float(np.dot(diff, diff))))


# With kernel="auto", pairwise batches distance evaluation over ndarray
# payloads through the dense euclidean kernel.
register_comp(euclidean_distance, "dense-euclidean")

# With pruning="sketch", threshold/top-k runs bound the distance two-sided
# via an orthonormal projection sketch.
register_sketch(euclidean_distance, "dense-euclidean")


@dataclass(frozen=True)
class DBSCANResult:
    """Cluster labels (0-based cluster ids; −1 = noise) and core flags.

    Indexed by element id (1-indexed, like the pairwise layer).
    """

    labels: dict[int, int]
    core: frozenset[int]

    @property
    def num_clusters(self) -> int:
        return len({label for label in self.labels.values() if label != NOISE})

    def members(self, cluster: int) -> list[int]:
        return sorted(eid for eid, label in self.labels.items() if label == cluster)


def cluster_from_neighbors(
    neighbors: Mapping[int, Sequence[int]], min_pts: int
) -> DBSCANResult:
    """DBSCAN's second half: labels from precomputed ε-neighbour lists.

    ``neighbors[eid]`` lists the *other* points within ε of ``eid`` (the
    point itself is implicit, matching the pairwise layer's result maps).
    """
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    # Core test counts the point itself: |N_eps(p)| >= min_pts.
    core = frozenset(
        eid for eid, others in neighbors.items() if len(others) + 1 >= min_pts
    )
    labels: dict[int, int] = {eid: NOISE for eid in neighbors}
    cluster = 0
    for seed in sorted(core):
        if labels[seed] != NOISE:
            continue
        # BFS over density-connected core points.
        labels[seed] = cluster
        frontier = [seed]
        while frontier:
            point = frontier.pop()
            for other in neighbors[point]:
                if other in core:
                    if labels[other] == NOISE:
                        labels[other] = cluster
                        frontier.append(other)
                elif labels[other] == NOISE:
                    labels[other] = cluster  # border point adopted, not expanded
        cluster += 1
    return DBSCANResult(labels=labels, core=core)


def dbscan_pairwise(
    points: Sequence[np.ndarray],
    eps: float,
    min_pts: int,
    scheme: DistributionScheme,
    *,
    engine=None,
    pruning: str = "off",
) -> DBSCANResult:
    """Full DBSCAN via the parallel pairwise pipeline under ``scheme``.

    The distance phase runs on ``engine`` (default serial) through
    :func:`~repro.core.runner.auto_pairwise`, on the payload route
    :func:`~repro.core.chooser.route_payloads` prices for ``scheme``: the
    one-job cached plan or the two-job shuffle.

    ``pruning="sketch"`` skips pairs whose projection-sketch distance
    lower bound already reaches ε — a sound bound, so the clustering is
    identical to the unpruned run.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    merged, _choice = auto_pairwise(
        points, euclidean_distance, scheme=scheme, threshold=eps, pruning=pruning, engine=engine
    )
    neighbors = {eid: sorted(element.results) for eid, element in merged.items()}
    return cluster_from_neighbors(neighbors, min_pts)


def dbscan_reference(
    points: Sequence[np.ndarray], eps: float, min_pts: int
) -> DBSCANResult:
    """Single-machine DBSCAN oracle: O(v²) distances, same label semantics.

    Note DBSCAN's border-point assignment is order-dependent when a border
    point touches two clusters; both this oracle and
    :func:`cluster_from_neighbors` resolve ties by ascending core-point id,
    so results are directly comparable.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    arr = [np.asarray(p, dtype=float) for p in points]
    v = len(arr)
    neighbors: dict[int, list[int]] = {eid: [] for eid in range(1, v + 1)}
    for i in range(v):
        for j in range(i + 1, v):
            if euclidean_distance(arr[i], arr[j]) < eps:
                neighbors[i + 1].append(j + 1)
                neighbors[j + 1].append(i + 1)
    return cluster_from_neighbors(neighbors, min_pts)
