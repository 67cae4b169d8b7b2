"""Count-min sketch for heavy-hitter term detection.

The classic Cormode–Muthukrishnan structure: ``depth`` hash rows of
``width`` counters; :meth:`estimate` takes the minimum over rows, so it
**never underestimates** a key's true count (every row holds the true
count plus non-negative collision noise).  The sparse sketch builder
streams document frequencies through one of these to pick the
heavy-hitter terms that get dedicated norm buckets — the overestimate
direction is exactly right there: a false heavy-hitter only spends a
bucket, it never loosens a bound.

Hashing is blake2b-derived (one digest per key yields all rows), so
estimates are identical across processes — the determinism the fault
tests lean on.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

#: blake2b digests cap at 64 bytes = 8 rows of 8-byte indices.
MAX_DEPTH = 8


class CountMinSketch:
    """Conservative frequency counter: ``estimate(k) >= true_count(k)``."""

    __slots__ = ("width", "depth", "seed", "table")

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if not 1 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.table = np.zeros((depth, width), dtype=np.int64)

    def _indices(self, key: str) -> np.ndarray:
        digest = hashlib.blake2b(
            key.encode("utf-8"),
            digest_size=8 * self.depth,
            salt=self.seed.to_bytes(8, "little"),
        ).digest()
        return np.frombuffer(digest, dtype=np.uint64) % np.uint64(self.width)

    def add(self, key: str, count: int = 1) -> int:
        """Count ``key``; returns the post-update estimate (for HH tracking)."""
        idx = self._indices(key)
        rows = np.arange(self.depth)
        self.table[rows, idx] += count
        return int(self.table[rows, idx].min())

    def add_many(self, keys: Iterable[str]) -> None:
        for key in keys:
            self.add(key)

    def add_bulk(self, keys: Sequence[str], counts: Sequence[int]) -> np.ndarray:
        """One scatter-add for many (key, count) pairs; returns the keys' estimates after it.

        The sketch is linear, so pre-aggregating a key's occurrences
        (combiner-style) and bulk-adding is state-identical to streaming
        them one at a time — and orders of magnitude cheaper in Python.
        The estimates are :meth:`estimate_bulk`'s, read off the same
        hashes.
        """
        if len(keys) != len(counts):
            raise ValueError("keys and counts must have equal length")
        if not keys:
            return np.zeros(0, dtype=np.int64)
        idx = np.stack([self._indices(key) for key in keys])  # (n, depth)
        amounts = np.asarray(counts, dtype=np.int64)
        rows = np.broadcast_to(np.arange(self.depth), idx.shape)
        np.add.at(self.table, (rows.ravel(), idx.ravel()), np.repeat(amounts, self.depth))
        return self.table[np.arange(self.depth), idx].min(axis=1)

    def estimate(self, key: str) -> int:
        idx = self._indices(key)
        return int(self.table[np.arange(self.depth), idx].min())

    def estimate_bulk(self, keys: Sequence[str]) -> np.ndarray:
        """Vectorized :meth:`estimate` over many keys."""
        if not keys:
            return np.zeros(0, dtype=np.int64)
        idx = np.stack([self._indices(key) for key in keys])
        return self.table[np.arange(self.depth), idx].min(axis=1)

    def merge(self, other: "CountMinSketch") -> None:
        """Fold another sketch over the same (width, depth, seed) into this one."""
        if (self.width, self.depth, self.seed) != (
            other.width,
            other.depth,
            other.seed,
        ):
            raise ValueError(
                "can only merge count-min sketches with identical "
                "(width, depth, seed)"
            )
        self.table += other.table

    @property
    def nbytes(self) -> int:
        return self.table.nbytes
