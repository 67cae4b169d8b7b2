"""Partitioning / sorting / grouping tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce.shuffle import (
    hash_partition,
    partition_records,
    sort_and_group,
    stable_hash,
)


class TestStableHash:
    def test_known_types_stable(self):
        """Same value → same hash, across calls (process-independence is
        guaranteed by construction: blake2b of a canonical encoding)."""
        for value in (0, 1, -17, 2**80, "key", b"raw", (1, "a"), True, False):
            assert stable_hash(value) == stable_hash(value)

    def test_true_is_not_one(self):
        """bool/int confusion would collapse keys True and 1."""
        assert stable_hash(True) != stable_hash(1)

    def test_distinct_values_spread(self):
        hashes = {stable_hash(i) for i in range(1000)}
        assert len(hashes) == 1000

    def test_negative_and_positive_differ(self):
        assert stable_hash(-5) != stable_hash(5)

    @pytest.mark.parametrize("key", [0, 5, -5, 255, 2**31 - 1, -(2**31)])
    def test_numpy_integers_hash_like_the_int_they_equal(self, key):
        """Equal keys must collide: an id leaked from an id array is still that id."""
        for leaked in (np.int64(key), np.int32(key), np.array([key])[0]):
            assert leaked == key
            assert stable_hash(leaked) == stable_hash(key)
            assert hash_partition(leaked, 7) == hash_partition(key, 7)


class TestHashPartition:
    def test_range(self):
        for key in range(100):
            assert 0 <= hash_partition(key, 7) < 7

    def test_deterministic(self):
        assert hash_partition("x", 5) == hash_partition("x", 5)

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            hash_partition(1, 0)

    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_always_in_range(self, n, key):
        assert 0 <= hash_partition(key, n) < n


class TestPartitionRecords:
    def test_all_records_kept(self):
        records = [(i % 5, i) for i in range(100)]
        parts = partition_records(records, 4)
        assert sum(len(p) for p in parts) == 100

    def test_same_key_same_partition(self):
        records = [(i % 5, i) for i in range(100)]
        parts = partition_records(records, 4)
        key_home = {}
        for index, part in enumerate(parts):
            for key, _value in part:
                assert key_home.setdefault(key, index) == index

    def test_custom_partitioner(self):
        parts = partition_records([(3, "a"), (4, "b")], 2, lambda k, n: k % n)
        assert parts[1] == [(3, "a")]
        assert parts[0] == [(4, "b")]

    def test_out_of_range_partitioner_rejected(self):
        with pytest.raises(ValueError):
            partition_records([(1, "a")], 2, lambda k, n: 5)


class TestSortAndGroup:
    def test_groups_in_key_order(self):
        records = [(2, "b1"), (1, "a1"), (2, "b2"), (1, "a2"), (3, "c")]
        groups = [(k, list(vs)) for k, vs in sort_and_group(records)]
        assert groups == [(1, ["a1", "a2"]), (2, ["b1", "b2"]), (3, ["c"])]

    def test_each_key_exactly_once(self):
        records = [(i % 7, i) for i in range(70)]
        keys = [k for k, _vs in sort_and_group(records)]
        assert keys == sorted(set(keys))

    def test_sort_key_proxy(self):
        """Non-comparable keys become sortable through the proxy."""
        records = [((2, "x"), 1), ((1, "y"), 2)]
        groups = list(sort_and_group(records, sort_key=lambda k: k[0]))
        assert [k for k, _ in groups] == [(1, "y"), (2, "x")]

    def test_equal_proxy_distinct_keys_stay_separate(self):
        records = [(("a", 1), "r1"), (("b", 1), "r2")]
        groups = [(k, list(vs)) for k, vs in sort_and_group(records, sort_key=lambda k: k[1])]
        assert len(groups) == 2

    def test_empty(self):
        assert list(sort_and_group([])) == []
