"""Reference checkers, operation accounting and leak scans.

References are computed with plain numpy during set-up, outside every
timer, and share no code with the program under test.  A checker returns
``None`` when the output is right and a one-line reason otherwise, so the
caller can count the operation as failed without losing why.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

#: value tolerance for every float comparison against a reference
TOLERANCE = 1e-9


# -- references -----------------------------------------------------------------
def covariance_reference(matrix: np.ndarray) -> np.ndarray:
    return np.cov(matrix, bias=False)


def knn_reference(points: Sequence[np.ndarray], k: int) -> dict[int, list[tuple[int, float]]]:
    """Exact k nearest neighbours per 1-indexed id, ties broken by id.

    A Gram-formula distance matrix picks ``k + 8`` candidates per point;
    their distances are then recomputed from the coordinate differences,
    so the returned values carry no cancellation error.
    """
    cloud = np.stack(points)
    v = len(cloud)
    squared = np.einsum("ij,ij->i", cloud, cloud)
    gram = squared[:, None] + squared[None, :] - 2.0 * (cloud @ cloud.T)
    np.fill_diagonal(gram, np.inf)
    width = min(v - 1, k + 8)
    candidates = np.argpartition(gram, width - 1, axis=1)[:, :width]
    neighbours = {}
    for i in range(v):
        ids = candidates[i]
        exact = np.sqrt(((cloud[ids] - cloud[i]) ** 2).sum(axis=1))
        order = np.lexsort((ids, exact))[:k]
        neighbours[i + 1] = [(int(ids[o]) + 1, float(exact[o])) for o in order]
    return neighbours


def threshold_join_reference(
    documents: Sequence[Mapping[str, float]], threshold: float
) -> tuple[dict[tuple[int, int], float], set[tuple[int, int]]]:
    """Dense normalised-Gram join: ``({(i, j): cosine > threshold}, borderline)``.

    ``borderline`` holds the pairs within ``TOLERANCE`` of the threshold;
    float summation order may put those on either side, so the key-set
    comparison ignores them.
    """
    vocabulary = {term: col for col, term in enumerate(sorted({t for d in documents for t in d}))}
    dense = np.zeros((len(documents), len(vocabulary)))
    for row, document in enumerate(documents):
        for term, weight in document.items():
            dense[row, vocabulary[term]] = weight
    gram = dense @ dense.T
    lower = np.tril_indices(len(documents), k=-1)
    values = gram[lower]
    keep = values > threshold
    kept = {
        (int(i) + 1, int(j) + 1): float(value)
        for i, j, value in zip(lower[0][keep], lower[1][keep], values[keep])
    }
    near = np.abs(values - threshold) <= TOLERANCE
    borderline = {(int(i) + 1, int(j) + 1) for i, j in zip(lower[0][near], lower[1][near])}
    return kept, borderline


def all_pairs_reference(
    dataset: Sequence[Any], comp: Callable[[Any, Any], Any]
) -> dict[tuple[int, int], Any]:
    """Every pair evaluated directly: ``{(i, j): comp(s_i, s_j)}``, i > j, 1-indexed."""
    return {
        (i + 1, j + 1): comp(dataset[i], dataset[j])
        for i in range(1, len(dataset))
        for j in range(i)
    }


# -- checkers -------------------------------------------------------------------
def check_covariance(output: np.ndarray, reference: np.ndarray) -> str | None:
    if output.shape != reference.shape:
        return f"covariance shape {output.shape} != reference {reference.shape}"
    if not np.allclose(output, reference, rtol=TOLERANCE, atol=TOLERANCE):
        return f"covariance off by up to {np.abs(output - reference).max():.3e}"
    return None


def check_knn(graph: Any, reference: Mapping[int, list[tuple[int, float]]]) -> str | None:
    neighbours = graph.neighbors
    if set(neighbours) != set(reference):
        return "kNN graph covers the wrong element ids"
    for eid, expected in reference.items():
        got = neighbours[eid]
        if [partner for partner, _ in got] != [partner for partner, _ in expected]:
            return f"kNN neighbours of element {eid} differ from the reference"
        if not np.allclose(
            [d for _, d in got], [d for _, d in expected], rtol=TOLERANCE, atol=TOLERANCE
        ):
            return f"kNN distances of element {eid} differ from the reference"
    return None


def check_threshold_join(
    output: Mapping[tuple[int, int], float],
    reference: tuple[dict[tuple[int, int], float], set[tuple[int, int]]],
) -> str | None:
    """Recall = precision = 1.0 on the key set, values to ``TOLERANCE``."""
    expected, borderline = reference
    missed = set(expected) - set(output) - borderline
    extra = set(output) - set(expected) - borderline
    if missed or extra:
        return f"threshold join: {len(missed)} pairs missed, {len(extra)} spurious"
    for key in set(expected) & set(output):
        if abs(output[key] - expected[key]) > TOLERANCE:
            return f"threshold join: value of pair {key} off by {abs(output[key] - expected[key]):.3e}"
    return None


def check_pair_map(merged: Mapping[int, Any], reference: Mapping[tuple[int, int], Any]) -> str | None:
    """``auto_pairwise`` output against the all-pairs reference.

    Every element must list every partner exactly once with the reference
    value (floats to ``TOLERANCE``, everything else exactly).
    """
    v = len(merged)
    if v * (v - 1) // 2 != len(reference):
        return f"{v} merged elements cannot hold {len(reference)} reference pairs"
    for eid, element in merged.items():
        results = element.results
        if len(results) != v - 1:
            return f"element {eid} has {len(results)} results, expected {v - 1}"
        for partner, value in results.items():
            expected = reference[(eid, partner) if eid > partner else (partner, eid)]
            if isinstance(expected, float):
                if abs(value - expected) > TOLERANCE * max(1.0, abs(expected)):
                    return f"pair ({eid}, {partner}) = {value!r}, reference {expected!r}"
            elif value != expected:
                return f"pair ({eid}, {partner}) = {value!r}, reference {expected!r}"
    return None


def check_ledger(evaluations: int | None, pairs_pruned: int | None, v: int) -> str | None:
    """The conservation ledger ``evaluations + pairs_pruned == v(v−1)/2``."""
    if evaluations is None or pairs_pruned is None:
        return "ledger counters unavailable (counter tap missing)"
    total = v * (v - 1) // 2
    if evaluations + pairs_pruned != total:
        return f"ledger broken: {evaluations} evaluated + {pairs_pruned} pruned != {total}"
    return None


# -- operation accounting ---------------------------------------------------------
class Operations:
    """Attempted / failed operation counts behind ``error_rate``.

    An operation is one warm-up, timed or traced run; it fails if the
    entry point raises or its output fails the workload's checker.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- leak scans -------------------------------------------------------------------
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm"


def residue(scratch: Path) -> set[str]:
    """What is lying around right now: temp entries under ``scratch`` and the
    program's shared-memory segments."""
    found = {f"temp entry {path.name}" for path in scratch.iterdir()} if scratch.is_dir() else set()
    if SHM_DIR.is_dir():
        found |= {
            f"shm segment {name}" for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)
        }
    return found


def leaks(scratch: Path, before: set[str]) -> list[str]:
    """Whatever outlived the workload, given the :func:`residue` taken before it.

    ``scratch`` is the private temp root the run pointed ``tempfile`` at, so
    every engine broadcast dir, spill dir and extsort run lands there; once
    all engines are closed nothing new may remain.
    """
    return sorted(residue(scratch) - before)
