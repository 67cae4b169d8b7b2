"""Shared small utilities and unit constants.

The paper (Kiefer et al., HPDC 2010) does all of its capacity arithmetic in
decimal units ("a dataset of 10,000 elements, 500KB each ... 5GB"), so the
constants here are decimal (powers of ten), not binary.  Binary variants are
provided with the conventional ``i`` infix for callers that want them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Decimal size units, as used throughout the paper's arithmetic.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

#: Binary size units for callers that prefer them.
KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30
TIB = 1 << 40


def ceil_div(a: int, b: int) -> int:
    """Exact integer ceiling of ``a / b`` for non-negative ``a``, positive ``b``.

    Used pervasively for the paper's ``⌈·⌉`` expressions (e.g. the block edge
    length ``e = ⌈v/h⌉`` and the broadcast chunk ``h = ⌈T/p⌉``).
    """
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    if a < 0:
        raise ValueError(f"dividend must be non-negative, got {a}")
    return -(-a // b)


def triangle_count(v: int) -> int:
    """Number of unordered pairs over ``v`` elements: ``v(v-1)/2``."""
    if v < 0:
        raise ValueError(f"v must be non-negative, got {v}")
    return v * (v - 1) // 2


def isqrt_ceil(x: int) -> int:
    """Smallest integer ``r`` with ``r*r >= x`` (x non-negative)."""
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def chunked(seq: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield contiguous chunks of ``seq`` of length ``size`` (last may be short)."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def format_bytes(n: float) -> str:
    """Human-readable decimal byte count (``1.5MB`` style), for reports."""
    if n < 0:
        return "-" + format_bytes(-n)
    for unit, name in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if n >= unit:
            return f"{n / unit:.4g}{name}"
    return f"{n:.4g}B"


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty iterable."""
    vals = list(values)
    if not vals:
        raise ValueError("mean of empty sequence")
    return sum(vals) / len(vals)


def stdev(values: Iterable[float]) -> float:
    """Population standard deviation; 0.0 for singleton input."""
    vals = list(values)
    if not vals:
        raise ValueError("stdev of empty sequence")
    mu = sum(vals) / len(vals)
    return math.sqrt(sum((x - mu) ** 2 for x in vals) / len(vals))


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending 1-D array, in order: its run starts.

    ``np.unique`` without ``return_counts`` hashes in NumPy 2.4, several
    times slower than a sort; callers sort (or already hold sorted values)
    and take the run starts here.
    """
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def kth_smallest(keys: np.ndarray, starts: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
    """The k-th smallest of each segment ``keys[start : start + length]``; +inf if shorter than k.

    Segments of one length are partitioned together as the rows of one
    matrix, so the work is linear in the entries and the Python loop runs
    once per distinct length.  NaN counts as the largest key, as in a sort.
    """
    kth = np.full(len(starts), np.inf)
    for length in np.unique(lengths[lengths >= k]):
        rows = np.flatnonzero(lengths == length)
        segments = keys[starts[rows, None] + np.arange(length)]
        kth[rows] = np.partition(segments, k - 1, axis=1)[:, k - 1]
    return kth
