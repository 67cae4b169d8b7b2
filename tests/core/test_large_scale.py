"""Larger-scale smoke validation: the invariants at a few hundred elements.

The property suites sweep v ≤ 45 densely; these single checks push each
scheme to the hundreds (still seconds, O(v²) checker) to catch any
size-dependent arithmetic drift — e.g. grid rounding at non-dividing h,
plane truncation deep below q̂, label inversion past 10⁴ pairs.
"""

import pytest

from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.validate import assert_valid_scheme, balance_report


@pytest.mark.parametrize(
    "scheme_factory",
    [
        lambda: BroadcastScheme(211, 16),
        lambda: BlockScheme(211, 13),            # prime v, non-dividing h
        lambda: BlockScheme(256, 16, pair_diagonals=True),
        lambda: DesignScheme(211),               # deep truncation of q=17 plane
        lambda: DesignScheme(183),               # exact plane (13²+13+1)
        lambda: DesignScheme(211, allow_prime_powers=True),  # truncated q=16 GF plane
    ],
    ids=["broadcast", "block", "block-paired", "design-trunc", "design-exact", "design-gf"],
)
def test_exactly_once_at_scale(scheme_factory):
    scheme = scheme_factory()
    assert_valid_scheme(scheme)


def test_balance_at_scale():
    """Table 1's balance claims hold at v=256 for the tunable schemes."""
    report = balance_report(BlockScheme(256, 16, pair_diagonals=True))
    assert report.eval_imbalance < 1.05
    report = balance_report(BroadcastScheme(256, 32))
    assert report.eval_imbalance < 1.05
    report = balance_report(DesignScheme(183))  # exact plane: perfect
    assert report.eval_imbalance == 1.0


def test_pipeline_at_scale():
    """A 211-element end-to-end run through the MR pipeline."""
    from repro.core.pairwise import PairwiseComputation, brute_force_results
    from repro.core.element import results_matrix

    data = [float((x * 37 + 11) % 509) for x in range(211)]

    def distance(a, b):
        return abs(a - b)

    computation = PairwiseComputation(DesignScheme(211, allow_prime_powers=True), distance)
    merged = computation.run(data)
    assert results_matrix(merged) == brute_force_results(data, distance)
