"""MinHash signatures over stable term hashes.

Each of ``num_hashes`` permutations is a multiply-shift map over the
term's blake2b hash — ``h_k(t) = a_k·t + b_k (mod 2⁶⁴)`` with odd
``a_k`` drawn from a seeded generator — and the signature keeps the
minimum over a document's terms.  The collision probability of one
signature slot approximates the Jaccard overlap of the term sets, so
averaging slot agreements estimates it.

MinHash estimates overlap, it bounds nothing, so no pruner consults
it: the sparse builder computes signatures only when asked for
``num_hashes > 0``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import empty_signature_row


def _permutation_params(num_hashes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    # Odd multipliers make x → a·x a bijection mod 2^64.
    a = rng.integers(1, 1 << 63, size=num_hashes, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 1 << 63, size=num_hashes, dtype=np.uint64)
    return a, b


def minhash_signatures(
    term_hash_rows: Sequence[np.ndarray], num_hashes: int, seed: int = 0
) -> np.ndarray:
    """(n_rows, num_hashes) uint64 signature matrix.

    ``term_hash_rows[r]`` is the uint64 hash array of row r's term set
    (:func:`repro.sketches.base.stable_term_hashes`); an empty set gets
    the all-max signature (no term ever attains it).
    """
    if num_hashes < 1:
        raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
    a, b = _permutation_params(num_hashes, seed)
    signatures = np.empty((len(term_hash_rows), num_hashes), dtype=np.uint64)
    for row, hashes in enumerate(term_hash_rows):
        if hashes.size:
            # uint64 arithmetic wraps mod 2^64 — that wrap IS the hash.
            signatures[row] = (hashes[:, None] * a[None, :] + b[None, :]).min(
                axis=0
            )
        else:
            signatures[row] = empty_signature_row(num_hashes)
    return signatures
