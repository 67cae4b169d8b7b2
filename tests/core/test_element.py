"""Element model tests: result storage, merging, §3 size arithmetic."""

import numpy as np
import pytest

from repro._util import GB, KB
from repro.core.element import (
    DuplicatePairError,
    Element,
    dataset_size_bytes,
    element_size_bytes,
    make_elements,
    merge_copies,
    ordered_results,
    results_dense,
    results_matrix,
)


class TestElement:
    def test_one_indexed_ids(self):
        with pytest.raises(ValueError):
            Element(0)
        assert Element(1).eid == 1

    def test_add_result(self):
        e = Element(1, "payload")
        e.add_result(2, 0.5)
        assert e.results == {2: 0.5}

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            Element(3).add_result(3, 1.0)

    def test_duplicate_partner_rejected(self):
        e = Element(1)
        e.add_result(2, 0.5)
        with pytest.raises(DuplicatePairError):
            e.add_result(2, 0.7)

    def test_add_results_bulk(self):
        e = Element(1)
        e.add_result(2, 0.5)
        e.add_results([3, 4], [0.25, (1, 2)])
        e.add_results({5: 0.75}.keys(), {5: 0.75}.values())  # dict views work too
        e.add_results([], [])
        assert e.results == {2: 0.5, 3: 0.25, 4: (1, 2), 5: 0.75}
        assert list(e.results) == [2, 3, 4, 5]  # insertion order = call order

    def test_add_results_self_pair_rejected(self):
        with pytest.raises(ValueError, match="element 3 paired with itself"):
            Element(3).add_results([1, 3], [0.5, 1.0])

    @pytest.mark.parametrize("partners", [[4, 2], [4, 5, 4]])
    def test_add_results_duplicate_names_the_pair(self, partners):
        e = Element(1)
        e.add_result(2, 0.5)
        duplicate = 2 if 2 in partners else 4
        with pytest.raises(DuplicatePairError, match=rf"pair \(1, {duplicate}\)"):
            e.add_results(partners, [0.1] * len(partners))

    def test_add_results_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Element(1).add_results([2, 3], [0.5])

    def test_copy_without_results_shares_payload(self):
        payload = [1, 2, 3]
        e = Element(4, payload)
        e.add_result(1, 0.1)
        copy = e.copy_without_results()
        assert copy.eid == 4
        assert copy.payload is payload
        assert copy.results == {}
        assert e.results == {1: 0.1}  # original untouched


class TestMergeCopies:
    def _copies(self):
        a = Element(1, "data")
        a.add_result(2, 0.2)
        b = Element(1, "data")
        b.add_result(3, 0.3)
        return a, b

    def test_disjoint_merge(self):
        merged = merge_copies(self._copies())
        assert merged.results == {2: 0.2, 3: 0.3}
        assert merged.payload == "data"

    def test_duplicate_error_policy(self):
        a, _ = self._copies()
        b = Element(1)
        b.add_result(2, 0.9)
        with pytest.raises(DuplicatePairError):
            merge_copies([a, b])

    def test_duplicate_keep_policy(self):
        a, _ = self._copies()
        b = Element(1)
        b.add_result(2, 0.9)
        merged = merge_copies([a, b], on_duplicate="keep")
        assert merged.results[2] == 0.2

    def test_duplicate_combine_policy(self):
        a, _ = self._copies()
        b = Element(1)
        b.add_result(2, 0.9)
        merged = merge_copies([a, b], on_duplicate="combine", combine=max)
        assert merged.results[2] == 0.9

    def test_combine_requires_function(self):
        with pytest.raises(ValueError):
            merge_copies([Element(1)], on_duplicate="combine")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            merge_copies([Element(1)], on_duplicate="whatever")

    def test_different_ids_rejected(self):
        with pytest.raises(ValueError):
            merge_copies([Element(1), Element(2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_copies([])

    def test_payload_backfilled_from_later_copy(self):
        a = Element(1, None)
        b = Element(1, "late payload")
        assert merge_copies([a, b]).payload == "late payload"

    def test_original_copies_not_mutated(self):
        a, b = self._copies()
        merge_copies([a, b])
        assert a.results == {2: 0.2}
        assert b.results == {3: 0.3}


class TestSizeArithmetic:
    def test_paper_example(self):
        """§3: 10,000 × 500 KB elements → each ≈650 KB after, ≈6.5 GB total."""
        per_element = element_size_bytes(500 * KB, 9_999)
        assert per_element == 500 * KB + 9_999 * 16
        assert abs(per_element - 650 * KB) < 11 * KB  # "about 650KB"
        total = dataset_size_bytes(10_000, 500 * KB, with_results=True)
        assert abs(total - 6.5 * GB) < 0.1 * GB  # "about 6.5GB"

    def test_before_computation(self):
        assert dataset_size_bytes(10_000, 500 * KB) == 5 * GB

    def test_custom_widths(self):
        assert element_size_bytes(0, 10, id_bytes=4, result_bytes=4) == 80

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            element_size_bytes(-1, 0)
        with pytest.raises(ValueError):
            dataset_size_bytes(-1, 10)


class TestHelpers:
    def test_make_elements(self):
        elements = make_elements(["a", "b", "c"])
        assert [e.eid for e in elements] == [1, 2, 3]
        assert [e.payload for e in elements] == ["a", "b", "c"]

    def test_results_matrix_canonicalizes(self):
        a = Element(1)
        a.add_result(2, 0.5)
        b = Element(2)
        b.add_result(1, 0.5)
        assert results_matrix([a, b]) == {(2, 1): 0.5}

    def test_results_matrix_detects_asymmetry(self):
        a = Element(1)
        a.add_result(2, 0.5)
        b = Element(2)
        b.add_result(1, 0.6)  # disagrees
        with pytest.raises(ValueError):
            results_matrix([a, b])

    def test_results_matrix_accepts_mapping(self):
        a = Element(1)
        a.add_result(2, 1.5)
        assert results_matrix({1: a}) == {(2, 1): 1.5}

    def test_results_matrix_nan_is_symmetric(self):
        """Regression: NaN != NaN made every NaN-valued pair 'asymmetric'."""
        a = Element(1)
        a.add_results([2, 3], [float("nan"), 1.0])
        b = Element(2)
        b.add_result(1, float("nan"))  # a distinct NaN object, as after a shuffle
        out = results_matrix([a, b])
        assert set(out) == {(2, 1), (3, 1)} and out[(2, 1)] != out[(2, 1)]
        b.results[1] = 2.0
        with pytest.raises(ValueError, match=r"asymmetric results for pair \(2, 1\)"):
            results_matrix([a, b])

    def test_results_matrix_keeps_first_value_and_one_sided_pairs(self):
        a = Element(3)
        a.add_results([1, 2], [0.0, 7.0])
        b = Element(1)
        b.add_result(3, -0.0)  # equal to 0.0: symmetric, first one seen is kept
        out = results_matrix([a, b])
        assert out == {(3, 1): 0.0, (3, 2): 7.0}
        assert str(out[(3, 1)]) == "0.0"

    def test_ordered_results_keeps_orientation(self):
        a = Element(1)
        a.add_result(2, "fwd")
        b = Element(2)
        b.add_result(1, "bwd")
        assert ordered_results({1: a, 2: b}) == {(1, 2): "fwd", (2, 1): "bwd"}


class TestResultsDense:
    def _elements(self):
        a = Element(1)
        a.add_results([2, 3], [0.5, float("nan")])
        b = Element(2)
        b.add_result(1, 0.5)
        c = Element(3)
        c.add_result(1, float("nan"))
        return a, b, c

    def test_matches_results_matrix(self):
        dense = results_dense(self._elements())
        assert dense.shape == (3, 3)
        assert dense[0, 1] == dense[1, 0] == 0.5
        assert np.isnan(dense[0, 2]) and np.isnan(dense[2, 0])  # NaN agrees with NaN
        assert dense[1, 2] == dense[2, 1] == 0.0  # never stored
        assert not dense.diagonal().any()

    def test_one_sided_pair_is_mirrored(self):
        a, b, c = self._elements()
        del b.results[1]
        dense = results_dense({1: a, 2: b, 3: c})
        assert dense[1, 0] == dense[0, 1] == 0.5

    def test_detects_asymmetry(self):
        a, b, c = self._elements()
        b.results[1] = 0.6
        with pytest.raises(ValueError, match=r"asymmetric results for pair \(2, 1\)"):
            results_dense([a, b, c])

    @pytest.mark.parametrize("partner", [0, 4, -1])
    def test_out_of_range_partner_rejected(self, partner):
        a, b, c = self._elements()
        c.results[partner] = 1.0
        with pytest.raises(ValueError, match="out of range for v=3"):
            results_dense([a, b, c])

    def test_out_of_range_element_rejected(self):
        with pytest.raises(ValueError, match="out of range for v=1"):
            results_dense([Element(2)])
