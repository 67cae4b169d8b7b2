"""Singer difference sets: cyclic projective planes in O(q) memory.

A *perfect difference set* ``D = {d₁ … d_{q+1}}`` modulo ``q̂ = q²+q+1``
has the property that every non-zero residue mod q̂ arises exactly once
as a difference ``dᵢ − dⱼ``.  Its translates ``D + t (mod q̂)`` are then
the lines of a projective plane of order q — the *Singer cycle*
construction: point p (0-indexed) lies on lines ``{(p − d) mod q̂}`` and
line t holds points ``{(t + d) mod q̂}``, d ∈ D.  A translate of D is
the perfect difference cover :class:`~repro.core.quorum.QuorumScheme`
uses at ``v = q̂``, and :func:`cyclic_plane` is a third plane construction the
tests cross-check against Lee and GF(q).  The design scheme does not use
it: truncated below q̂, the Singer labelling keeps more tasks and a
higher replication than the stored Lee / GF plane at most v
(EXPERIMENTS.md P23).

Construction (classical Singer): PG(2, q)'s points are the 1-dimensional
GF(q)-subspaces of GF(q³); a primitive element g of GF(q³) acts on them
as a single q̂-cycle, and the points lying in any GF(q)-hyperplane form
a difference set in the exponent group Z_q̂.  We walk ``x = gⁱ``
incrementally and test hyperplane membership:

- for prime q (GF(q³) built directly over GF(p), polynomial basis
  {1, x, x²}): membership in span{1, x} is just ``code < p²`` — O(1);
- for prime powers q = p^k: the kernel of the relative trace
  ``Tr(x) = x + x^q + x^{q²}`` is a GF(q)-hyperplane; we carry
  ``x, x^q, x^{q²}`` along the walk (one multiplication each by
  ``g, g^q, g^{q²}`` per step), so no per-step exponentiation.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import GF
from .primes import is_prime_power, plane_size, prime_power_decompose


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n (trial division; n is small here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_primitive_element(field: GF) -> int:
    """Smallest generator of GF(q)*: order exactly q − 1.

    Checks candidates by verifying ``g^((q−1)/p) ≠ 1`` for every prime
    factor p of q − 1.
    """
    order = field.q - 1
    if order == 1:
        return 1
    factors = _prime_factors(order)
    for candidate in range(2, field.q):
        if all(field.pow(candidate, order // p) != 1 for p in factors):
            return candidate
    raise RuntimeError(f"no primitive element found in {field!r}")  # pragma: no cover


@lru_cache(maxsize=None)
def singer_difference_set(q: int) -> tuple[int, ...]:
    """Perfect difference set of size q+1 modulo q²+q+1 (Singer).

    Returns the sorted residues.  Raises for non-prime-power q (no plane
    is known to exist there — cf. the existence conditions the paper's
    §5.3 alludes to).
    """
    if not is_prime_power(q):
        raise ValueError(f"Singer construction needs a prime power, got {q}")
    p, k = prime_power_decompose(q)
    cubic = GF(p ** (3 * k))
    g = find_primitive_element(cubic)
    q_hat = plane_size(q)
    total = cubic.q - 1  # q³ − 1 powers of g

    residues: set[int] = set()
    if k == 1:
        # Polynomial basis over GF(p) = GF(q): hyperplane span{1, x} is
        # exactly the codes below p² (zero x²-coefficient).
        bound = p * p
        x = 1
        for i in range(total):
            if x < bound:
                residues.add(i % q_hat)
            x = cubic.mul(x, g)
    else:
        # Relative trace kernel: Tr(x) = x + x^q + x^{q²} = 0.  Carry the
        # three conjugate walks together; each steps by a fixed factor.
        gq = cubic.pow(g, q)
        gq2 = cubic.pow(g, q * q)
        x, y, z = 1, 1, 1  # g⁰, (g⁰)^q, (g⁰)^{q²}
        for i in range(total):
            if cubic.add(cubic.add(x, y), z) == 0:
                residues.add(i % q_hat)
            x = cubic.mul(x, g)
            y = cubic.mul(y, gq)
            z = cubic.mul(z, gq2)

    diff_set = tuple(sorted(residues))
    if len(diff_set) != q + 1:
        raise RuntimeError(
            f"Singer walk for q={q} produced {len(diff_set)} residues, "
            f"expected {q + 1} — hyperplane assumption violated"
        )
    return diff_set


def verify_difference_set(diff_set: tuple[int, ...] | list[int], modulus: int) -> bool:
    """True iff every non-zero residue occurs exactly once as dᵢ − dⱼ."""
    seen: dict[int, int] = {}
    elements = list(diff_set)
    for a in elements:
        for b in elements:
            if a == b:
                continue
            d = (a - b) % modulus
            seen[d] = seen.get(d, 0) + 1
    return len(seen) == modulus - 1 and all(count == 1 for count in seen.values())


def cyclic_plane(q: int) -> list[list[int]]:
    """Projective plane of order q as translates of the Singer set.

    Block t (0-indexed) = ``{((t + d) mod q̂) + 1 : d ∈ D}`` (1-indexed
    points) — the O(q)-memory representation expanded for verification
    and interop with :mod:`repro.designs.bibd`.
    """
    diff_set = singer_difference_set(q)
    q_hat = plane_size(q)
    return [
        sorted(((t + d) % q_hat) + 1 for d in diff_set) for t in range(q_hat)
    ]
