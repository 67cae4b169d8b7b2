"""Aggregator strategy tests (Algorithm 2's aggregateResults)."""

import pytest

from repro.core.aggregate import ConcatAggregator, ThresholdAggregator, TopKAggregator
from repro.core.element import DuplicatePairError, Element


def _copies(results_per_copy):
    """Build copies of element 1 with the given per-copy result maps."""
    out = []
    for results in results_per_copy:
        e = Element(1, "payload")
        for partner, value in results.items():
            e.add_result(partner, value)
        out.append(e)
    return out


class TestConcat:
    def test_merges_disjoint(self):
        merged = ConcatAggregator()(_copies([{2: 0.1}, {3: 0.2}, {4: 0.3}]))
        assert merged.results == {2: 0.1, 3: 0.2, 4: 0.3}

    def test_error_on_duplicates(self):
        with pytest.raises(DuplicatePairError, match=r"pair \(1, 2\)"):
            ConcatAggregator()(_copies([{2: 0.1}, {3: 0.3}, {4: 0.4, 2: 0.2}]))


class TestThreshold:
    def test_keep_below(self):
        agg = ThresholdAggregator(0.5, keep_below=True)
        merged = agg(_copies([{2: 0.1, 3: 0.9}, {4: 0.5}]))
        assert merged.results == {2: 0.1}  # 0.5 is not < 0.5

    def test_keep_above(self):
        agg = ThresholdAggregator(0.5, keep_below=False)
        merged = agg(_copies([{2: 0.1, 3: 0.9}]))
        assert merged.results == {3: 0.9}


class TestTopK:
    def test_k_smallest(self):
        agg = TopKAggregator(2, smallest=True)
        merged = agg(_copies([{2: 5.0, 3: 1.0}, {4: 3.0, 5: 0.5}]))
        assert merged.results == {5: 0.5, 3: 1.0}

    def test_k_largest(self):
        agg = TopKAggregator(1, smallest=False)
        merged = agg(_copies([{2: 5.0, 3: 1.0}]))
        assert merged.results == {2: 5.0}

    def test_ties_break_on_partner_id(self):
        agg = TopKAggregator(1, smallest=True)
        merged = agg(_copies([{3: 1.0, 2: 1.0}]))
        assert merged.results == {2: 1.0}

    def test_k_larger_than_results(self):
        agg = TopKAggregator(10)
        merged = agg(_copies([{2: 1.0}]))
        assert merged.results == {2: 1.0}

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TopKAggregator(0)

    @pytest.mark.parametrize("smallest", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 7, 20])
    def test_heap_selection_identical_to_full_sort(self, smallest, k):
        # The heap path must keep exactly the pairs the historical full
        # sort kept — ties included (values repeat on purpose).
        results = {
            partner: float((partner * 3) % 5) for partner in range(2, 20)
        }
        merged = TopKAggregator(k, smallest=smallest)(_copies([results]))
        ranked = sorted(
            results.items(),
            key=lambda item: (item[1], item[0]),
            reverse=not smallest,
        )
        assert merged.results == dict(ranked[:k])

