"""Exact enumeration of the strict upper triangle of the pair matrix (Fig. 5).

The broadcast scheme (paper §5.1) enumerates all unordered pairs of a
``v``-element set by labelling the strict upper triangle of the v×v matrix
column by column:

    p(i, j) = (i − 1)(i − 2) / 2 + j        for  i > j ≥ 1

so that pair (2,1) gets label 1, (3,1) label 2, (3,2) label 3, (4,1) label
4, … (the paper's Figure 5).  Labels run 1 … T where T = v(v−1)/2.

This module provides the labelling, its exact integer inverse, and the
label ranges that carve the triangle into per-task chunks.  The scalar
inverse uses ``math.isqrt``, so it is exact for arbitrarily large v (no
float round-off at the billion-pair scale the paper's datasets imply); the
vectorised one, :func:`label_pair_array`, corrects its float square root
in integer arithmetic and is exact over the int64 label range.
"""

from __future__ import annotations

import math

import numpy as np

from .._util import ceil_div, triangle_count

Pair = tuple[int, int]


def pair_label(i: int, j: int) -> int:
    """Label ``p(i, j)`` of the pair (s_i, s_j) with i > j >= 1 (Fig. 5)."""
    if j < 1 or i <= j:
        raise ValueError(f"expected i > j >= 1, got (i={i}, j={j})")
    return (i - 1) * (i - 2) // 2 + j


def label_to_pair(p: int) -> Pair:
    """Invert :func:`pair_label`: the (i, j) with ``pair_label(i, j) == p``.

    ``i`` is the smallest integer with ``i(i−1)/2 >= p`` (the column of the
    triangle that contains label p), and ``j = p − (i−1)(i−2)/2``.
    """
    if p < 1:
        raise ValueError(f"pair labels start at 1, got {p}")
    # Solve i(i-1)/2 >= p exactly: i = ceil((1 + sqrt(1 + 8p)) / 2).
    root = math.isqrt(8 * p - 7)  # sqrt of discriminant of (i-1)(i-2)/2 < p
    i = (root + 3) // 2
    # Exact fix-up for the isqrt floor (at most one step either way).
    while (i - 1) * (i - 2) // 2 >= p:
        i -= 1
    while i * (i - 1) // 2 < p:
        i += 1
    j = p - (i - 1) * (i - 2) // 2
    return (i, j)


def total_pairs(v: int) -> int:
    """Total number of labels for a v-element set: T = v(v−1)/2."""
    return triangle_count(v)


def labels_for_task(task: int, num_tasks: int, v: int) -> range:
    """Label range of broadcast task ``task`` (0-indexed) out of ``num_tasks``.

    The paper assigns node l (1-indexed) labels ``(l−1)h + 1 … min(l·h, T)``
    with ``h = ⌈T / n⌉``; this helper is the 0-indexed equivalent.  The
    returned range may be empty for trailing tasks when T < num_tasks · h.
    """
    if not 0 <= task < num_tasks:
        raise ValueError(f"task index {task} out of range [0, {num_tasks})")
    T = triangle_count(v)
    if T == 0:
        return range(1, 1)
    h = ceil_div(T, num_tasks)
    lo = task * h + 1
    hi = min((task + 1) * h, T)
    return range(lo, hi + 1)


def label_pair_array(labels: range) -> np.ndarray:
    """The pairs of a contiguous label range as ``(n, 2)`` int64 rows, in label order.

    Inverts every label at once the way :func:`label_to_pair` inverts one:
    a float square root stands in for ``isqrt``, off by at most one, and
    one integer fix-up step in each direction makes the column exact.
    """
    p = np.arange(labels.start, labels.stop, dtype=np.int64)
    i = (np.sqrt((8 * p - 7).astype(np.float64)).astype(np.int64) + 3) // 2
    i -= (i - 1) * (i - 2) // 2 >= p
    i += i * (i - 1) // 2 < p
    return np.column_stack((i, p - (i - 1) * (i - 2) // 2))


def elements_in_labels(labels: range) -> set[int]:
    """The set of element ids touched by a contiguous label range.

    Used to compute the *effective* working set of a broadcast task — the
    scheme ships all v elements, but a task only reads these.
    """
    return set(np.unique(label_pair_array(labels)).tolist())
