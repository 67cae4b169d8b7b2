"""Incremental pairwise maintenance: extend results when elements arrive.

The paper computes all pairs of a *fixed* set; real datasets grow.  When
``w`` new elements join a set of ``v`` already-computed elements, only

- the ``v × w`` **cross pairs** (old against new), and
- the ``w(w−1)/2`` **fresh pairs** (new against new)

need evaluation — ``v·w + w(w−1)/2`` evaluations instead of re-running
the full ``(v+w)(v+w−1)/2``.  Both phases are one
:class:`~repro.core.pairwise.PairwiseComputation` each: the cross pairs
under a :mod:`bipartite <repro.core.bipartite>` scheme (the §1 two-set
generalization, the new elements as side S), the fresh pairs under any
flat scheme over the new elements; exactly-once over the *union* follows
from the three phases partitioning the enlarged triangle.

:class:`IncrementalPairwise` owns the merged element state across
batches and is the unit a long-running pairwise service would persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .._util import triangle_count
from .bipartite import BipartiteBlockScheme
from .block import BlockScheme
from .element import Element
from .pairwise import PairwiseComputation
from .scheme import DistributionScheme


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`IncrementalPairwise.add_batch` call did."""

    new_elements: int
    cross_evaluations: int
    fresh_evaluations: int
    total_elements: int

    @property
    def evaluations(self) -> int:
        return self.cross_evaluations + self.fresh_evaluations

    def savings_vs_recompute(self) -> float:
        """Fraction of a full recompute avoided by incrementality."""
        full = triangle_count(self.total_elements)
        return 1.0 - self.evaluations / full if full else 0.0


class IncrementalPairwise:
    """Maintain all-pairs results across element arrivals.

    Parameters
    ----------
    comp:
        Symmetric pair function.
    flat_scheme_factory:
        ``v → DistributionScheme`` used for within-batch pairs (default:
        a block scheme with h ≈ √v).
    cross_factors:
        ``(vr, vs) → (hr, hs)`` grid factors for the old × new bipartite
        block scheme (default: ≈ square tiles of ~64 elements).
    """

    def __init__(
        self,
        comp: Callable[[Any, Any], Any],
        *,
        flat_scheme_factory: Callable[[int], DistributionScheme] | None = None,
        cross_factors: Callable[[int, int], tuple[int, int]] | None = None,
    ):
        self.comp = comp
        self._flat_factory = flat_scheme_factory or _default_flat_scheme
        self._cross_factors = cross_factors or _default_cross_factors
        self._elements: dict[int, Element] = {}

    # -- state -------------------------------------------------------------
    @property
    def v(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> dict[int, Element]:
        """The merged elements (live references; treat as read-only)."""
        return self._elements

    def results(self) -> dict[tuple[int, int], Any]:
        """Canonical (i > j) pair map over everything computed so far."""
        from .element import results_matrix

        return results_matrix(self._elements)

    # -- growth -------------------------------------------------------------
    def add_batch(self, payloads: Sequence[Any]) -> BatchReport:
        """Add new elements; evaluate exactly the pairs they introduce.

        New elements receive ids ``v+1 … v+w`` in arrival order.
        """
        if not payloads:
            raise ValueError("batch must contain at least one element")
        old_v = self.v
        new_elements = [
            Element(old_v + index + 1, payload)
            for index, payload in enumerate(payloads)
        ]

        cross_evals = 0
        if old_v > 0:
            hr, hs = self._cross_factors(old_v, len(new_elements))
            scheme = BipartiteBlockScheme(old_v, len(new_elements), hr, hs)
            held = [self._elements[eid] for eid in sorted(self._elements)]
            # Side S, the batch, comes first in the scheme's id space.
            cross_evals = self._evaluate(scheme, new_elements + held)

        fresh_evals = 0
        if len(new_elements) >= 2:
            scheme = self._flat_factory(len(new_elements))
            if scheme.v != len(new_elements):
                raise ValueError(
                    f"flat scheme factory returned v={scheme.v} for batch of "
                    f"{len(new_elements)}"
                )
            fresh_evals = self._evaluate(scheme, new_elements)

        for element in new_elements:
            self._elements[element.eid] = element
        return BatchReport(
            new_elements=len(new_elements),
            cross_evaluations=cross_evals,
            fresh_evaluations=fresh_evals,
            total_elements=self.v,
        )

    def _evaluate(self, scheme: DistributionScheme, members: list[Element]) -> int:
        """Run ``scheme`` over ``members`` (its element k is ``members[k-1]``).

        Folds every result into the members under their own ids and
        returns the number of pairs evaluated.
        """
        computation = PairwiseComputation(scheme, self.comp)
        merged = computation.run_local([member.payload for member in members])
        entries = 0
        for local_id, local_element in merged.items():
            for local_partner, result in local_element.results.items():
                members[local_id - 1].add_result(members[local_partner - 1].eid, result)
            entries += len(local_element.results)
        return entries // 2  # each pair contributed two result entries


def _default_flat_scheme(v: int) -> DistributionScheme:
    if v < 2:
        raise ValueError(f"flat scheme needs v >= 2, got {v}")
    h = max(1, round(v**0.5))
    return BlockScheme(v, min(h, v))


def _default_cross_factors(vr: int, vs: int) -> tuple[int, int]:
    tile = 64
    hr = max(1, min(vr, -(-vr // tile)))
    hs = max(1, min(vs, -(-vs // tile)))
    return hr, hs
