"""Serialization and byte-accounting tests."""

import pickle
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element import Element
from repro.mapreduce import serialization
from repro.mapreduce.serialization import (
    _BUFFER_MAGIC,
    SizedPayload,
    declared_size,
    decode_records,
    encode_records,
    record_size,
)


class TestSizedPayload:
    def test_declares_size(self):
        assert declared_size(SizedPayload(500_000)) == 500_000

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SizedPayload(-1)

    def test_containers_sum(self):
        payload = [SizedPayload(100), SizedPayload(200)]
        assert declared_size(payload) == 300

    def test_dict_values(self):
        payload = {"a": SizedPayload(100), "b": SizedPayload(50)}
        size = declared_size(payload)
        assert size is not None and size >= 150

    def test_plain_objects_declare_nothing(self):
        assert declared_size(42) is None
        assert declared_size("hello") is None
        assert declared_size([1, 2, 3]) is None

    def test_element_with_sized_payload(self):
        e = Element(1, SizedPayload(1000))
        e.add_result(2, 0.5)
        e.add_result(3, 0.5)
        # payload + 2 results × 16 B + 8 B id
        assert declared_size(e) == 1000 + 32 + 8


class TestRecordSize:
    def test_declared_beats_measured(self):
        assert record_size(1, SizedPayload(10_000)) == 10_000 + 8

    def test_string_key(self):
        assert record_size("abc", SizedPayload(10)) == 3 + 10

    def test_measured_fallback_positive(self):
        assert record_size(1, [1.0] * 100) > 100

    def test_int_float_sizes(self):
        assert record_size(1, 2) == 16
        assert record_size(1, 2.5) == 16

    def test_bytes_value(self):
        assert record_size(0, b"12345") == 8 + 5


# -- record_size vs the walk-first implementation it replaced ------------------
# The reference below is that implementation, verbatim: walk the value for
# declarations first, pickle it for its size afterwards.


def walk_first_declared_size(obj):
    if isinstance(obj, SizedPayload):
        return obj.size_bytes
    if isinstance(obj, (list, tuple)):
        total = 0
        found = False
        for item in obj:
            child = walk_first_declared_size(item)
            if child is not None:
                found = True
                total += child
            else:
                total += walk_first_quick_size(item)
        return total if found else None
    if isinstance(obj, dict):
        total = 0
        found = False
        for key, value in obj.items():
            child = walk_first_declared_size(value)
            if child is not None:
                found = True
                total += child + walk_first_quick_size(key)
            else:
                total += walk_first_quick_size(key) + walk_first_quick_size(value)
        return total if found else None
    if hasattr(obj, "payload"):
        child = walk_first_declared_size(obj.payload)
        if child is not None:
            extra = 0
            results = getattr(obj, "results", None)
            if isinstance(results, dict):
                extra = 16 * len(results)
            return child + extra + 8
    return None


@lru_cache(maxsize=65536)
def walk_first_pickled_size_of_hashable(obj):
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def walk_first_quick_size(obj):
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 128
    try:
        return walk_first_pickled_size_of_hashable(obj)
    except TypeError:
        try:
            return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return 64
    except Exception:
        return 64


def walk_first_record_size(key, value):
    value_size = walk_first_declared_size(value)
    if value_size is None:
        value_size = walk_first_quick_size(value)
    return walk_first_quick_size(key) + value_size


class Unpicklable:
    """Hashable, but refuses to pickle; may still carry a declared payload."""

    def __init__(self, payload):
        self.payload = payload

    def __reduce__(self):
        raise pickle.PicklingError("not today")


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.just("SizedPayload"),  # spells the class without being one
    st.binary(max_size=16),
    st.builds(lambda n: np.arange(n, dtype=float), st.integers(0, 5)),
    st.builds(SizedPayload, st.integers(0, 10**9), st.integers(0, 3)),
)
KEYS = st.one_of(st.integers(0, 50), st.text(max_size=5), st.tuples(st.integers(0, 9), st.integers(0, 9)))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.builds(
            Element,
            st.integers(1, 50),
            children,
            st.dictionaries(st.integers(1, 50), st.floats(allow_nan=False), max_size=3),
        ),
        st.builds(Unpicklable, children),
    )


TREES = st.recursive(LEAVES, containers, max_leaves=12)


class TestRecordSizeEqualsWalkFirst:
    @given(key=KEYS, value=TREES)
    @settings(max_examples=400, deadline=None)
    def test_same_size_on_any_tree(self, key, value):
        # Both memoize hashables by value, so both start cold.
        serialization._hashable_pickle_facts.cache_clear()
        walk_first_pickled_size_of_hashable.cache_clear()
        assert record_size(key, value) == walk_first_record_size(key, value)

    def test_a_string_that_spells_the_class_declares_nothing(self):
        value = {"kind": "SizedPayload", "weights": [0.5, 1.5]}
        assert declared_size(value) is None
        assert record_size(7, value) == 8 + len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def test_plain_container_is_not_walked(self, monkeypatch):
        """The point of the change: no per-entry Python walk when nothing can be declared."""
        monkeypatch.setattr(
            serialization, "declared_size", lambda obj: pytest.fail("walked a plain container")
        )
        record_size(1, {"term": 0.5, "other": [1, 2, 3]})
        record_size(1, Element(1, (0.5, 1.5), {2: 0.25}))


class TestNumpyBufferCodec:
    """The NPB1 buffer layout of ``encode_records`` / ``decode_records``."""

    def test_ndarray_roundtrip_out_of_band(self):
        arr = np.arange(1000, dtype=np.float64)
        wire = encode_records([(7, arr)])
        assert wire.startswith(_BUFFER_MAGIC)
        ((key, restored),) = decode_records(wire)
        assert key == 7
        np.testing.assert_array_equal(restored, arr)

    def test_raw_buffer_not_copied_through_pickle_head(self):
        arr = np.arange(4096, dtype=np.float64)
        wire = encode_records([(0, arr)])
        # Framed layout: magic + count + length-prefixed raw data + head.
        # The head alone must stay tiny (metadata only, no element data).
        head_size = len(wire) - arr.nbytes
        assert head_size < 512

    def test_plain_objects_keep_plain_pickle_layout(self):
        records = [("key", [1, 2, (3, 4)]), ("text", "hello")]
        wire = encode_records(records)
        assert wire.startswith(b"\x80")  # PROTO opcode, not the magic
        assert pickle.loads(wire) == records  # any pickle reader still works
        assert decode_records(wire) == records

    def test_decoded_arrays_are_readonly_views(self):
        ((_key, restored),) = decode_records(encode_records([(0, np.ones(16))]))
        assert not restored.flags.writeable
        copy = restored.copy()
        copy[0] = 5.0  # mutating a copy is the supported path
        assert restored[0] == 1.0

    def test_noncontiguous_array_falls_back_in_band(self):
        arr = np.arange(100, dtype=np.float64)[::2]
        ((_key, restored),) = decode_records(encode_records([(0, arr)]))
        np.testing.assert_array_equal(restored, arr)

    def test_mixed_dtypes_and_nesting(self):
        records = [
            (1, np.arange(10, dtype=np.int32)),
            (2, {"w": np.ones((3, 4)), "label": "x"}),
        ]
        restored = decode_records(encode_records(records))
        np.testing.assert_array_equal(restored[0][1], records[0][1])
        np.testing.assert_array_equal(restored[1][1]["w"], records[1][1]["w"])
        assert restored[1][1]["label"] == "x"


class TestEncodeRecords:
    def test_plain_records_roundtrip(self):
        records = [(1, "a"), (2, "b"), ("k", [1, 2, 3])]
        assert decode_records(encode_records(records)) == records

    def test_ndarray_records_use_framed_layout(self):
        records = [(eid, np.full(64, float(eid))) for eid in range(1, 6)]
        wire = encode_records(records)
        assert wire.startswith(_BUFFER_MAGIC)
        restored = decode_records(wire)
        assert [key for key, _value in restored] == [1, 2, 3, 4, 5]
        for (_key, got), (_key2, want) in zip(restored, records):
            np.testing.assert_array_equal(got, want)

    def test_empty_chunk(self):
        assert decode_records(encode_records([])) == []
