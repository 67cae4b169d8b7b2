"""Sketch suite container and stable term hashing.

Everything a pruner needs travels in one :class:`SketchSuite`: plain
metadata plus contiguous ndarrays indexed by element id (row 0 unused —
elements are 1-indexed like the rest of the pairwise layer).  The suite
is a picklable dataclass of ndarrays, so it rides the distributed cache
like any other cache object and the shm data plane shares its buffers
zero-copy (pickle protocol 5 out-of-band buffers).

Term hashing goes through blake2b, **not** ``hash(str)``: Python string
hashing is salted per process (PYTHONHASHSEED), and pruning decisions
must be identical across workers and retries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

_UINT64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def stable_term_hash(term: str, salt: int = 0) -> int:
    """64-bit hash of a term, stable across processes and Python runs."""
    digest = hashlib.blake2b(
        term.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def stable_term_hashes(terms: Iterable[str], salt: int = 0) -> np.ndarray:
    """Vector of :func:`stable_term_hash` values as uint64."""
    return np.fromiter(
        (stable_term_hash(term, salt) for term in terms), dtype=np.uint64
    )


@dataclass(frozen=True)
class SketchSuite:
    """All per-element summaries for one dataset, one sketch kind.

    Arrays are indexed by element id; which ones are populated depends on
    ``kind`` (see :mod:`repro.sketches.builders`):

    - sparse kinds: ``bucket_norms`` (v+1, B), optional ``signatures``
      (v+1, S) uint64;
    - dense kinds: ``coords`` (v+1, m) in an orthonormal basis,
      ``residuals`` (v+1,) — the payload's norm outside that basis.

    ``norms`` (the full L2 norm per element) is always present.  The
    bound methods take an (n, 2) block of pair ids and return one float64
    per pair; their soundness is the whole point — see each docstring.
    """

    kind: str
    v: int
    seed: int
    norms: np.ndarray
    bucket_norms: np.ndarray | None = None
    signatures: np.ndarray | None = None
    coords: np.ndarray | None = None
    residuals: np.ndarray | None = None
    num_heavy_buckets: int = 0
    heavy_terms: tuple[str, ...] = ()

    @property
    def nbytes(self) -> int:
        """Total sketch footprint in bytes (the SKETCH_BYTES gauge)."""
        total = 0
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                total += value.nbytes
        return total

    # -- sound bounds ----------------------------------------------------------
    def similarity_upper(self, block: np.ndarray) -> np.ndarray:
        """Sound upper bound on the similarity of each pair in ``block``.

        - ``sparse-cosine``: the dot product of two sparse vectors split
          over term buckets obeys per-bucket Cauchy–Schwarz,
          ``dot(a, b) = Σ_b dot(a_b, b_b) ≤ Σ_b ‖a_b‖·‖b_b‖``, for *any*
          partition of the vocabulary into buckets — heavy-hitter terms
          in dedicated buckets only tighten it.  (The docsim vectors are
          L2-normalized upstream, so this bounds their cosine too.)
        - ``dense-cosine`` / ``dense-dot``: with ``P`` the orthonormal
          projector, ``⟨a, b⟩ = ⟨Pa, Pb⟩ + ⟨a−Pa, b−Pb⟩`` and the
          residual term is at most ``ρ_i·ρ_j`` by Cauchy–Schwarz.
        """
        i = block[:, 0]
        j = block[:, 1]
        if self.kind == "sparse-cosine":
            return np.einsum(
                "ij,ij->i", self.bucket_norms[i], self.bucket_norms[j]
            )
        if self.kind in ("dense-cosine", "dense-dot"):
            dot_upper = (
                np.einsum("ij,ij->i", self.coords[i], self.coords[j])
                + self.residuals[i] * self.residuals[j]
            )
            if self.kind == "dense-dot":
                return dot_upper
            denom = self.norms[i] * self.norms[j]
            out = np.zeros(len(block), dtype=np.float64)
            nonzero = denom > 0
            out[nonzero] = dot_upper[nonzero] / denom[nonzero]
            return out
        raise ValueError(
            f"sketch kind {self.kind!r} has no similarity upper bound"
        )

    def _projected_gap(self, block: np.ndarray) -> tuple[np.ndarray, ...]:
        if self.coords is None:
            raise ValueError(
                f"sketch kind {self.kind!r} has no distance bounds"
            )
        i = block[:, 0]
        j = block[:, 1]
        diff = self.coords[i] - self.coords[j]
        return np.einsum("ij,ij->i", diff, diff), self.residuals[i], self.residuals[j]

    def distance_lower(self, block: np.ndarray) -> np.ndarray:
        """Sound lower bound on the euclidean distance of each pair.

        ``‖a−b‖² = ‖P(a−b)‖² + ‖r_a−r_b‖²`` with orthonormal ``P`` and
        residuals ``r``; ``‖r_a−r_b‖ ≥ |ρ_i−ρ_j|`` (reverse triangle
        inequality), so the bound never exceeds the true distance.
        """
        gap, res_i, res_j = self._projected_gap(block)
        return np.sqrt(gap + (res_i - res_j) ** 2)

    def distance_upper(self, block: np.ndarray) -> np.ndarray:
        """Sound upper bound on the euclidean distance (``‖r_a−r_b‖ ≤ ρ_i+ρ_j``)."""
        gap, res_i, res_j = self._projected_gap(block)
        return np.sqrt(gap + (res_i + res_j) ** 2)

    # -- estimates (NOT bounds) ------------------------------------------------
    def estimated_jaccard(self, block: np.ndarray) -> np.ndarray:
        """MinHash Jaccard estimate per pair — an estimate, never a bound."""
        if self.signatures is None:
            raise ValueError("suite was built without MinHash signatures")
        i = block[:, 0]
        j = block[:, 1]
        return (self.signatures[i] == self.signatures[j]).mean(axis=1)

    def describe(self) -> str:
        """One-line human summary (benches print it)."""
        parts = [f"kind={self.kind}", f"v={self.v}", f"bytes={self.nbytes}"]
        if self.bucket_norms is not None:
            parts.append(
                f"buckets={self.bucket_norms.shape[1]}"
                f" (heavy={self.num_heavy_buckets})"
            )
        if self.signatures is not None:
            parts.append(f"signatures={self.signatures.shape[1]}")
        if self.coords is not None:
            parts.append(f"proj_dim={self.coords.shape[1]}")
        return "SketchSuite(" + ", ".join(parts) + ")"


def empty_signature_row(num_hashes: int) -> np.ndarray:
    """Signature of the empty set: no term ever beats UINT64_MAX."""
    return np.full(num_hashes, _UINT64_MAX, dtype=np.uint64)
