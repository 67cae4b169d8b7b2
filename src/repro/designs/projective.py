"""Projective-plane constructions (the basis of the design scheme, §5.3).

Two independent constructions of a ``(q²+q+1, q+1, 1)``-design are provided:

:func:`lee_plane`
    The fast incidence construction of Lee, Kang & Choi cited by the paper's
    Theorem 2.  It uses only mod-q arithmetic and is valid for **prime** q.
    Blocks come out in the paper's exact order (D₁ … D_{q²+q+1}), which the
    design scheme relies on when truncating.

:func:`gf_plane`
    The classical construction over GF(q) (homogeneous coordinates): points
    and lines are the normalized non-zero vectors of GF(q)³, a point lies on
    a line iff their dot product vanishes.  Valid for every **prime power**
    q, at the cost of field arithmetic.

Both return blocks of **1-indexed** point ids in ``[1, q²+q+1]``, matching
the paper's ``s₁ … s_v`` convention.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .gf import GF
from .primes import is_prime, is_prime_power, plane_size

Block = List[int]


def lee_plane(q: int) -> list[Block]:
    """Construct a projective plane of prime order ``q`` (paper Theorem 2).

    Returns ``q²+q+1`` blocks of ``q+1`` 1-indexed point ids each:

    1. ``D₁   = {s_j | 1 ≤ j ≤ q+1}``
    2. ``D_i  = {s₁} ∪ {s_j | q(i−1)+2 ≤ j ≤ qi+1}``            for 1 < i ≤ q+1
    3. ``D_i  = {s_{h+2}} ∪ {s_{q(m+1) + ((l−hm) mod q) + 2}}`` for q+1 < i,
       with ``h = ⌊(i−2)/q⌋ − 1`` and ``l = (i−2) mod q``, m = 0 … q−1.
    """
    if not is_prime(q):
        raise ValueError(
            f"the Lee construction requires a prime order, got {q}; "
            "use gf_plane() for prime powers"
        )
    v = plane_size(q)
    blocks: list[Block] = []
    # Rule 1.
    blocks.append(list(range(1, q + 2)))
    # Rule 2.
    for i in range(2, q + 2):
        members = [1]
        members.extend(range(q * (i - 1) + 2, q * i + 2))
        blocks.append(members)
    # Rule 3.
    for i in range(q + 2, v + 1):
        h = (i - 2) // q - 1
        l = (i - 2) % q
        members = [h + 2]
        for m in range(q):
            members.append(q * (m + 1) + ((l - h * m) % q) + 2)
        blocks.append(members)
    return blocks


def _normalized_points(field: GF) -> list[tuple[int, int, int]]:
    """Canonical representatives of the projective points of PG(2, q).

    Each projective point is a non-zero vector of GF(q)³ up to scaling; the
    canonical representative has its first non-zero coordinate equal to 1.
    Enumeration order: ``(1, y, z)`` for all y, z; then ``(0, 1, z)``; then
    ``(0, 0, 1)`` — q² + q + 1 points total, in a stable deterministic order.
    """
    q = field.q
    points: list[tuple[int, int, int]] = []
    for y in range(q):
        for z in range(q):
            points.append((1, y, z))
    for z in range(q):
        points.append((0, 1, z))
    points.append((0, 0, 1))
    return points


def _field_tables(field: GF) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """GF(q)'s addition and multiplication tables, negation and inverse, as arrays of codes."""
    add, mul = (np.array([[op(a, b) for b in field.elements()] for a in field.elements()])
                for op in (field.add, field.mul))
    neg = np.argmax(add == 0, axis=1)
    inv = np.argmax(mul == 1, axis=1)  # inv[0] is meaningless and never read
    return add, mul, neg, inv


def gf_plane(q: int) -> list[Block]:
    """Construct a projective plane of prime-power order ``q`` over GF(q).

    Points and lines are both indexed by :func:`_normalized_points`; block
    ``i`` collects the (1-indexed) ids of the points incident to line ``i``
    (dot product zero in GF(q)), ascending.  Each line is solved for its
    q+1 points directly — O(q) per line over the field's tables, not a
    test of every point.
    """
    if not is_prime_power(q):
        raise ValueError(f"plane order must be a prime power, got {q}")
    field = GF(q)
    add, mul, neg, inv = _field_tables(field)
    # Point ids: (1, y, z) → qy + z + 1, (0, 1, z) → q² + z + 1, (0, 0, 1) → q² + q + 1.
    ys = np.arange(q)
    infinity = q * q + 1
    blocks: list[Block] = []
    for a, b, c in _normalized_points(field):  # lines are the same triples (duality)
        if c:  # one point per y: z = −(a + by)/c; one at infinity: z = −b/c
            zs = mul[neg[add[a, mul[b, ys]]], inv[c]]
            members = np.append(q * ys + zs + 1, infinity + mul[neg[b], inv[c]])
        elif b:  # y = −a/b with every z, and (0, 0, 1)
            members = np.append(q * mul[neg[a], inv[b]] + ys + 1, infinity + q)
        else:  # x = 0: the q + 1 points at infinity
            members = infinity + np.arange(q + 1)
        blocks.append(members.tolist())
    return blocks


def projective_plane(q: int) -> list[Block]:
    """Plane of order ``q``: Lee construction for primes, GF(q) otherwise."""
    return lee_plane(q) if is_prime(q) else gf_plane(q)
