"""Triangle enumeration tests (the Fig. 5 labelling and its inverse)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.triangle import (
    elements_in_labels,
    label_pair_array,
    label_to_pair,
    labels_for_task,
    pair_label,
    total_pairs,
)


def task_pairs(task: int, num_tasks: int, v: int) -> list[tuple[int, int]]:
    """A broadcast task's pairs, in label order."""
    return [tuple(row) for row in label_pair_array(labels_for_task(task, num_tasks, v)).tolist()]


class TestPairLabel:
    def test_figure5_values(self):
        """The exact labels printed in the paper's Figure 5."""
        expected = {
            (2, 1): 1, (3, 1): 2, (3, 2): 3, (4, 1): 4, (4, 2): 5, (4, 3): 6,
            (5, 1): 7, (5, 2): 8, (5, 3): 9, (5, 4): 10, (6, 1): 11,
            (7, 1): 16, (7, 6): 21,
        }
        for (i, j), p in expected.items():
            assert pair_label(i, j) == p

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            pair_label(1, 1)
        with pytest.raises(ValueError):
            pair_label(2, 3)  # i < j
        with pytest.raises(ValueError):
            pair_label(3, 0)

    def test_labels_are_dense(self):
        """Labels over v elements are exactly 1..v(v−1)/2, no gaps."""
        v = 12
        labels = sorted(pair_label(i, j) for i in range(2, v + 1) for j in range(1, i))
        assert labels == list(range(1, total_pairs(v) + 1))


class TestInverse:
    def test_roundtrip_small(self):
        for p in range(1, 1000):
            i, j = label_to_pair(p)
            assert i > j >= 1
            assert pair_label(i, j) == p

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            label_to_pair(0)

    @given(st.integers(min_value=1, max_value=10**15))
    def test_roundtrip_huge(self, p):
        """Exact at the billion-pair scale (no float round-off)."""
        i, j = label_to_pair(p)
        assert pair_label(i, j) == p

    @given(st.integers(min_value=2, max_value=10**7), st.data())
    def test_roundtrip_from_pair(self, i, data):
        j = data.draw(st.integers(min_value=1, max_value=i - 1))
        assert label_to_pair(pair_label(i, j)) == (i, j)


class TestTaskRanges:
    def test_union_of_tasks_is_everything(self):
        v, n = 17, 5
        seen = []
        for task in range(n):
            seen.extend(labels_for_task(task, n, v))
        assert sorted(seen) == list(range(1, total_pairs(v) + 1))

    def test_chunks_are_balanced(self):
        v, n = 100, 7
        sizes = [len(labels_for_task(t, n, v)) for t in range(n)]
        assert max(sizes) - min(sizes) <= max(sizes)  # trailing may be short
        assert max(sizes) == -(-total_pairs(v) // n)

    def test_more_tasks_than_pairs(self):
        v, n = 3, 10  # only 3 pairs
        nonempty = [t for t in range(n) if len(labels_for_task(t, n, v))]
        total = sum(len(labels_for_task(t, n, v)) for t in range(n))
        assert total == 3
        assert len(nonempty) == 3

    def test_v_below_two(self):
        assert len(labels_for_task(0, 1, 1)) == 0
        assert len(labels_for_task(0, 1, 0)) == 0

    def test_bad_task_index(self):
        with pytest.raises(ValueError):
            labels_for_task(5, 5, 10)
        with pytest.raises(ValueError):
            labels_for_task(-1, 5, 10)


class TestPairsIteration:
    def test_incremental_matches_inverse(self):
        labels = range(37, 61)
        rows = label_pair_array(labels)
        assert rows.dtype == np.int64
        assert [tuple(row) for row in rows.tolist()] == [label_to_pair(p) for p in labels]

    def test_empty_range(self):
        assert label_pair_array(range(5, 5)).shape == (0, 2)

    def test_pairs_for_task_cover_triangle(self):
        v, n = 11, 4
        seen = set()
        for task in range(n):
            for pair in task_pairs(task, n, v):
                assert pair not in seen
                seen.add(pair)
        assert len(seen) == total_pairs(v)
        assert all(1 <= j < i <= v for i, j in seen)

    def test_elements_in_labels(self):
        # Labels 1..3 are pairs (2,1), (3,1), (3,2) → elements {1, 2, 3}.
        assert elements_in_labels(range(1, 4)) == {1, 2, 3}

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=12))
    def test_property_task_partition(self, v, n):
        """Tasks always partition the label space exactly."""
        all_pairs = []
        for task in range(n):
            all_pairs.extend(task_pairs(task, n, v))
        assert len(all_pairs) == total_pairs(v)
        assert len(set(all_pairs)) == total_pairs(v)
