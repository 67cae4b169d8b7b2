"""External merge sort tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.extsort import ExternalSorter, sorted_groups


class TestInMemoryPath:
    def test_small_input_no_spill(self):
        with ExternalSorter(memory_budget=10**9) as sorter:
            sorter.add_all([(3, "c"), (1, "a"), (2, "b")])
            assert sorter.num_runs == 0
            assert list(sorter.sorted_records()) == [(1, "a"), (2, "b"), (3, "c")]
            assert sorter.spilled_records == 0


class TestSpilling:
    def test_tiny_budget_forces_runs(self):
        with ExternalSorter(memory_budget=64) as sorter:
            records = [(i % 17, i) for i in range(200)]
            sorter.add_all(records)
            assert sorter.num_runs > 1
            assert sorter.spilled_records > 0
            out = list(sorter.sorted_records())
        assert len(out) == 200
        keys = [k for k, _v in out]
        assert keys == sorted(keys)

    def test_merge_is_globally_sorted_and_complete(self):
        rng = random.Random(7)
        records = [(rng.randrange(1000), i) for i in range(5000)]
        with ExternalSorter(memory_budget=500) as sorter:
            sorter.add_all(records)
            out = list(sorter.sorted_records())
        assert sorted(out) == sorted(records)
        assert [k for k, _ in out] == sorted(k for k, _ in records)

    def test_values_for_equal_keys_all_present(self):
        with ExternalSorter(memory_budget=50) as sorter:
            sorter.add_all([("k", i) for i in range(100)])
            out = list(sorter.sorted_records())
        assert sorted(v for _k, v in out) == list(range(100))


class TestGroups:
    def test_sorted_groups_matches_in_memory_grouping(self):
        records = [(i % 5, i) for i in range(50)]
        with ExternalSorter(memory_budget=64) as sorter:
            sorter.add_all(records)
            groups = {k: sorted(vs) for k, vs in sorted_groups(sorter)}
        expected = {k: sorted(i for i in range(50) if i % 5 == k) for k in range(5)}
        assert groups == expected


class TestLifecycle:
    def test_single_use(self):
        sorter = ExternalSorter()
        sorter.add(1, "a")
        list(sorter.sorted_records())
        with pytest.raises(RuntimeError):
            sorter.add(2, "b")
        with pytest.raises(RuntimeError):
            list(sorter.sorted_records())
        sorter.close()

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            ExternalSorter(memory_budget=0)

    def test_custom_spill_dir(self, tmp_path):
        with ExternalSorter(memory_budget=32, spill_dir=tmp_path / "spills") as sorter:
            sorter.add_all([(i, i) for i in range(50)])
            assert sorter.num_runs > 0
            assert any((tmp_path / "spills").iterdir())
            list(sorter.sorted_records())


@given(
    records=st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.integers()),
        max_size=300,
    ),
    budget=st.integers(min_value=32, max_value=4096),
)
@settings(max_examples=30, deadline=None)
def test_property_external_equals_internal_sort(records, budget):
    """Any input, any budget: output is the stable multiset sort by key."""
    with ExternalSorter(memory_budget=budget) as sorter:
        sorter.add_all(records)
        out = list(sorter.sorted_records())
    assert sorted(out, key=lambda kv: kv[0]) == out
    assert sorted(out) == sorted(records)
