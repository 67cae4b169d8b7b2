"""Cross-cutting invariants, property-tested across subsystems.

These are the contracts that hold *between* modules: scheme metrics vs
measured balance, analytic vs enumerated task profiles, aggregation
order-independence, serialization faithfulness — each one a seam where
independent implementations must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import ConcatAggregator
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import Element, merge_copies
from repro.core.pairwise import PairwiseComputation, brute_force_results
from repro.core.validate import balance_report

SMALL_V = st.integers(min_value=2, max_value=30)


def _random_scheme(draw, v):
    kind = draw(st.sampled_from(["broadcast", "block", "block-diag", "design", "design-gf"]))
    if kind == "broadcast":
        return BroadcastScheme(v, draw(st.integers(min_value=1, max_value=12)))
    if kind == "block":
        return BlockScheme(v, draw(st.integers(min_value=1, max_value=v)))
    if kind == "block-diag":
        return BlockScheme(
            v, draw(st.integers(min_value=1, max_value=v)), pair_diagonals=True
        )
    if kind == "design":
        return DesignScheme(v)
    return DesignScheme(v, allow_prime_powers=True)


@given(v=SMALL_V, data=st.data())
@settings(max_examples=40, deadline=None)
def test_task_profiles_equal_enumeration(v, data):
    """Closed-form task profiles == enumerated members/pairs, all schemes."""
    scheme = _random_scheme(data.draw, v)
    for task in range(scheme.num_tasks):
        profile = scheme.task_profile(task)
        members = scheme.subset_members(task)
        assert profile.num_members == len(members)
        assert profile.num_evaluations == len(scheme.get_pairs(task, members))


@given(v=SMALL_V, data=st.data())
@settings(max_examples=30, deadline=None)
def test_metrics_working_set_bounds_measured(v, data):
    """Analytic working-set size is an upper bound on every real task."""
    scheme = _random_scheme(data.draw, v)
    limit = scheme.metrics().working_set_elements
    report = balance_report(scheme)
    assert report.ws_max <= limit + (limit if scheme.name.startswith("block") else 0)
    # block's 2⌈v/h⌉ is exact for cross blocks; diagonal-only tasks are
    # smaller — hence bound, not equality.


@given(v=SMALL_V, data=st.data())
@settings(max_examples=25, deadline=None)
def test_pipeline_equals_brute_force_random_schemes(v, data):
    """The headline invariant at a random point of the whole config space."""
    scheme = _random_scheme(data.draw, v)
    payloads = [
        data.draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
        for _ in range(v)
    ]

    from ..conftest import abs_diff

    computation = PairwiseComputation(scheme, abs_diff)
    from repro.core.element import results_matrix

    assert results_matrix(computation.run_local(payloads)) == brute_force_results(
        payloads, abs_diff
    )


@given(
    partner_groups=st.lists(
        st.dictionaries(
            st.integers(min_value=2, max_value=60),
            st.floats(allow_nan=False),
            max_size=5,
        ),
        min_size=1,
        max_size=5,
    ),
    seed=st.randoms(),
)
@settings(max_examples=40, deadline=None)
def test_merge_copies_order_independent(partner_groups, seed):
    """Merging disjoint copies commutes — any permutation, same element."""
    # Make the partner sets disjoint by offsetting each group.
    copies = []
    offset = 0
    for group in partner_groups:
        element = Element(1, "payload")
        for partner, value in group.items():
            element.results[partner + offset * 100] = value
        copies.append(element)
        offset += 1
    merged_forward = merge_copies([c for c in copies])
    shuffled = list(copies)
    seed.shuffle(shuffled)
    merged_shuffled = merge_copies(shuffled)
    assert merged_forward.results == merged_shuffled.results


@given(
    results=st.dictionaries(
        st.integers(min_value=2, max_value=100),
        st.floats(allow_nan=False),
        max_size=8,
    )
)
@settings(max_examples=30, deadline=None)
def test_concat_aggregator_idempotent_on_single_copy(results):
    element = Element(1, "p")
    element.results = dict(results)
    merged = ConcatAggregator()([element])
    assert merged.results == results


@given(v=SMALL_V, n=st.integers(min_value=1, max_value=10))
@settings(max_examples=30, deadline=None)
def test_broadcast_effective_ws_never_exceeds_v(v, n):
    scheme = BroadcastScheme(v, n)
    for task in range(n):
        effective = scheme.effective_working_set(task)
        assert len(effective) <= v
        for eid in effective:
            assert 1 <= eid <= v
