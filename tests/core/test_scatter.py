"""Bulk result path vs the historical per-pair ``addResult`` loop.

``scatter_results`` → result block → ``check_pairs`` → ``PairResults``
replaced three copies of::

    for (i, j), fwd, bwd in zip(pairs, forward, backward):
        elements[i].add_result(j, fwd)
        elements[j].add_result(i, bwd)

The loop is kept here as the reference: on any block the bulk path must
leave every element with the same result map, filled in the same order,
and must fail on the same blocks with the same exception type.  The parity
test pins the MR paths' records and counters to values recorded on
the commit before the bulk path existed — except the bytes and the one-job
record count, re-recorded once when payloads stopped riding leg 2 and the
one-job map started emitting partial maps, leg 1's records, bytes and
working-set gauge, re-recorded once when the distribute map started
shipping one block per working set, and leg 2's records, groups and bytes,
re-recorded once when the compute tasks started shipping one result block
per aggregate partition, the bytes and the aggregate output records
once more when result blocks became columns — ``bytes`` partner ids, one
output block per aggregate partition — and ``run_cached``'s records,
groups, bytes and attempts once more when the cached plan became one job
whose map tasks read their working sets from the cache, and the bytes
once more when a result block lost its empty payload field, and the bytes
once more when a concat run started filing each pair's result once (see
``PARENT``; every result, the digest, the evaluations and the replica
count are the original ones).
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BlockScheme
from repro.core.element import (
    DuplicatePairError,
    Element,
    PairResults,
    check_pairs,
    encode_block,
)
from repro.core.pairwise import AggregateReducer, PairwiseComputation, scatter_results
from repro.kernels import pair_index_array
from repro.mapreduce.runtime import SerialEngine

IDS = st.integers(min_value=1, max_value=12)


@st.composite
def pair_blocks(draw):
    """A duplicate-free block of pairs (either orientation) plus results.

    Results are floats or tuples (the scalar kernel's object-valued case);
    ``backward`` is ``forward`` itself (symmetric) or a different list.
    """
    unordered = draw(
        st.sets(st.tuples(IDS, IDS).filter(lambda p: p[0] < p[1]), max_size=40)
    )
    pairs = [p if draw(st.booleans()) else p[::-1] for p in sorted(unordered)]
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        forward = [float(i + j) / 7 for i, j in pairs]
        backward = [-value for value in forward]
    else:
        forward = [("fwd", i, j) for i, j in pairs]
        backward = [("bwd", j, i) for i, j in pairs]
    return pairs, forward, forward if draw(st.booleans()) else backward


def per_pair_loop(pairs, forward, backward):
    elements = {eid: Element(eid) for pair in pairs for eid in pair}
    for (i, j), fwd, bwd in zip(pairs, forward, backward):
        elements[i].add_result(j, fwd)
        elements[j].add_result(i, bwd)
    return elements


def bulk(pairs, forward, backward):
    owners, partners, values = scatter_results(pair_index_array(pairs), forward, backward)
    check_pairs(owners, partners)
    ids, counts = np.unique(owners, return_counts=True)
    block = encode_block(ids.tolist(), counts.tolist(), partners, values, 12)
    return dict(PairResults([block], v=12))


@given(block=pair_blocks())
@settings(max_examples=200, deadline=None)
def test_bulk_scatter_equals_per_pair_loop(block):
    expected = per_pair_loop(*block)
    actual = bulk(*block)
    assert actual == expected
    for eid, element in actual.items():
        assert list(element.results.items()) == list(expected[eid].results.items())
        assert all(type(partner) is int for partner in element.results)


def test_empty_block_scatters_nothing():
    assert [len(column) for column in scatter_results(pair_index_array([]), [], [])] == [0, 0, 0]


def test_scattered_values_are_plain_python_objects():
    """A float64 column stays one; list results become a column of the very same objects."""
    block = pair_index_array([(2, 1), (3, 1)])
    owners, partners, values = scatter_results(block, np.array([0.5, 1.5]), np.array([0.5, 1.5]))
    assert owners.tolist() == [1, 1, 2, 3] and partners.tolist() == [2, 3, 1, 1]
    assert values.dtype == np.float64 and values.tolist() == [0.5, 1.5, 0.5, 1.5]
    forward = [("a",), ("b",)]
    *_, values = scatter_results(block, forward, forward)
    assert values.dtype == object and values.shape == (4,)
    assert values[0] is forward[0] and values[2] is forward[0] and values[3] is forward[1]


@given(block=pair_blocks().filter(lambda b: len(b[0]) > 0), data=st.data())
@settings(max_examples=100, deadline=None)
def test_injected_duplicate_pair_raises_like_the_loop(block, data):
    pairs, forward, backward = block
    i, j = data.draw(st.sampled_from(pairs))
    pairs = [*pairs, data.draw(st.sampled_from([(i, j), (j, i)]))]
    forward = [*forward, forward[0]]
    backward = [*backward, backward[0]]
    with pytest.raises(DuplicatePairError) as expected:
        per_pair_loop(pairs, forward, backward)
    with pytest.raises(DuplicatePairError) as actual:
        bulk(pairs, forward, backward)
    named = {f"pair ({i}, {j})", f"pair ({j}, {i})"}
    assert any(text in str(expected.value) for text in named)
    assert any(text in str(actual.value) for text in named)


@given(block=pair_blocks(), eid=IDS)
@settings(max_examples=50, deadline=None)
def test_injected_self_pair_raises_like_the_loop(block, eid):
    pairs, forward, backward = block
    pairs = [*pairs, (eid, eid)]
    forward = [*forward, 0.0]
    backward = forward if backward is block[1] else [*backward, 0.0]
    for path in (per_pair_loop, bulk):
        with pytest.raises(ValueError, match=f"element {eid} paired with itself"):
            path(pairs, forward, backward)


# -- parity with the commit before the bulk path -------------------------------


def exact_dot(a, b):
    """Sums of multiples of 1/64: exact in binary floating point on any platform."""
    return sum(x * y for x, y in zip(a, b))


def _digest(merged):
    """Result maps *and* their insertion order, per element."""
    rows = [(eid, list(merged[eid].results.items())) for eid in sorted(merged)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


RECORDS_DIGEST = "bafc79e3da9426ac"


def _counters(records, groups, shuffle_bytes, attempts, **pairwise):
    return {
        "framework": {
            "map_input_records": records[0],
            "map_output_bytes": shuffle_bytes,
            "map_output_records": records[1],
            "reduce_input_groups": groups,
            "reduce_input_records": records[1],
            "reduce_output_records": records[2],
            "shuffle_bytes": shuffle_bytes,
            "shuffle_records": records[1],
            "task_attempts": attempts,
        },
        "pairwise": {"evaluations": 435, **pairwise},
    }


PARENT = {
    # leg 1 is one block per working set (one map task, six working sets);
    # leg 2 one result block (one compute task, one aggregate partition):
    # 90 records, 30 groups and 18 030 (run) / 11 730 (run_cached) bytes before.
    # Partner ids as one uint8 ``bytes`` column took the bytes from 16 948 /
    # 10 738 to these, and the aggregate reducer's one block per partition
    # took its output records from 30 to 1 (31 → 2 over both jobs).  The
    # result block lost its fifth field, a pickled ``None``: 16 080 / 9 102
    # bytes before, one byte more per result block.  A concat run files each
    # pair's result once, under (max, min): 16 079 / 9 101 bytes before, the
    # 435 partner bytes and 435 float results of the other orientation fewer.
    "run": _counters(
        (31, 7, 2), 7, 11729, 4,
        max_working_set_bytes=1540, max_working_set_records=20, replicas_emitted=90,
    ),
    # One job: six task descriptors in one split (one compute map task, one
    # aggregate reducer), one result block and no id leg.  Two jobs read
    # (31, 7, 2) records, 7 groups, 9 870 bytes and 4 attempts before; the
    # working-set gauges and the replica count are metered from the cached
    # view (8 B per id) and kept their values.
    "run_cached": _counters(
        (6, 1, 1), 1, 4751, 2,
        max_working_set_bytes=160, max_working_set_records=20, replicas_emitted=90,
    ),
}


def golden_data():
    rng = random.Random(1234)
    return [tuple(rng.randrange(-64, 65) / 64 for _ in range(6)) for _ in range(30)]


@pytest.mark.parametrize("path", sorted(PARENT))
def test_records_and_counters_identical_to_parent(path):
    data = golden_data()
    computation = PairwiseComputation(BlockScheme(30, 3), exact_dot, engine=SerialEngine())
    merged, result = getattr(computation, path)(data, return_pipeline=True)
    assert _digest(merged) == RECORDS_DIGEST
    assert result.counters.as_dict() == PARENT[path]
    # Pickle-size identity: Python ints and floats, never numpy scalars.
    for element in merged.values():
        assert all(type(p) is int and type(r) is float for p, r in element.results.items())


def check_result_blocks(path, kernel, monkeypatch):
    """Leg 2 and the aggregate output: four columns, int-list ids and counts, ``bytes`` partners.

    Partners are uint8 (v = 30); results are float64 ``bytes`` exactly when
    the kernel returned a float64 array (``dense-dot``), else the scalar
    kernel's list of Python floats.  The elements a run hands back hold
    Python ints and floats either way, and the same digest.
    """
    arrived = []
    fold = AggregateReducer.reduce

    def watched(self, key, values, context):
        values = list(values)
        arrived.extend(values)
        return fold(self, key, iter(values), context)

    monkeypatch.setattr(AggregateReducer, "reduce", watched)
    computation = PairwiseComputation(
        BlockScheme(30, 3), exact_dot, engine=SerialEngine(), kernel=kernel
    )
    merged, result = getattr(computation, path)(golden_data(), return_pipeline=True)
    emitted = [block for _partition, block in result.records]
    assert arrived and emitted
    for block in [*arrived, *emitted]:
        assert type(block) is tuple
        ids, counts, partners, values = block
        assert all(type(item) is int for item in [*ids, *counts])
        assert type(partners) is bytes and len(partners) == sum(counts)  # one byte per id
        if kernel is None:
            assert type(values) is list and all(type(value) is float for value in values)
        else:
            assert type(values) is bytes and len(values) == 8 * sum(counts)
    assert _digest(merged) == RECORDS_DIGEST
    for element in merged.values():
        assert all(type(p) is int and type(r) is float for p, r in element.results.items())


@pytest.mark.parametrize("path", sorted(PARENT))
def test_result_blocks_hold_plain_python_objects(path, monkeypatch):
    """The scalar kernel's results cross as a list of Python floats (:func:`check_result_blocks`)."""
    check_result_blocks(path, None, monkeypatch)


@pytest.mark.parametrize("path", sorted(PARENT))
def test_float_kernel_results_cross_as_float64_bytes(path, monkeypatch):
    """A kernel's float64 array crosses as float64 ``bytes`` (:func:`check_result_blocks`)."""
    check_result_blocks(path, "dense-dot", monkeypatch)

