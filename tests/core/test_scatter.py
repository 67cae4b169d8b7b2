"""Bulk result path vs the historical per-pair ``addResult`` loop.

``scatter_results`` + ``Element.add_results`` replaced three copies of::

    for (i, j), fwd, bwd in zip(pairs, forward, backward):
        elements[i].add_result(j, fwd)
        elements[j].add_result(i, bwd)

The loop is kept here as the reference: on any block the bulk path must
leave every element with the same result map, filled in the same order,
and must fail on the same blocks with the same exception type.  The parity
test pins all three MR paths' records and counters to values recorded on
the commit before the bulk path existed — except the bytes and the one-job
record count, re-recorded once when payloads stopped riding leg 2 and the
one-job map started emitting partial maps, and leg 1's records, bytes and
working-set gauge, re-recorded once when the distribute map started
shipping one block per working set (see ``PARENT``; every result, the
digest, the evaluations and the replica count are the original ones).
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.element import DuplicatePairError, Element, merge_copies
from repro.core.pairwise import PairwiseComputation, scatter_results
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
    elements = {eid: Element(eid) for pair in pairs for eid in pair}
    for eid, partners, values in scatter_results(pair_index_array(pairs), forward, backward):
        elements[eid].add_results(partners, values)
    return elements


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
    assert list(scatter_results(pair_index_array([]), [], [])) == []


def test_scattered_values_are_plain_python_objects():
    """ndarray.tolist() floats in, the very same objects out — never numpy scalars."""
    forward = np.array([0.5, 1.5]).tolist()
    block = pair_index_array([(2, 1), (3, 1)])
    groups = {eid: values for eid, _, values in scatter_results(block, forward, forward)}
    assert groups[1] == [0.5, 1.5] and groups[1][0] is forward[0]
    assert groups[2][0] is forward[0] and groups[3][0] is forward[1]


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


#: ``run``'s bytes with payloads still on leg 2 — what the row read before
#: results came home payload-free, and what an aggregator that may read
#: payloads still costs (``test_unknown_aggregator_keeps_payloads_on_leg_two``)
RUN_BYTES_WITH_PAYLOADS = 30048

PARENT = {
    # leg 1 is one block per working set (one map task, six working sets)
    "run": _counters(
        (120, 96, 120), 36, 25008, 4,
        max_working_set_bytes=1540, max_working_set_records=20, replicas_emitted=90,
    ),
    "run_cached": _counters(
        (120, 96, 120), 36, 12498, 4,
        max_working_set_bytes=160, max_working_set_records=20, replicas_emitted=90,
    ),
    # one {partner: result} map per element per task; 870 (partner, result)
    # records and 28 710 bytes before
    "run_broadcast_job": _counters((4, 95, 30), 30, 11850, 5),
}


def golden_data():
    rng = random.Random(1234)
    return [tuple(rng.randrange(-64, 65) / 64 for _ in range(6)) for _ in range(30)]


@pytest.mark.parametrize("path", sorted(PARENT))
def test_records_and_counters_identical_to_parent(path):
    data = golden_data()
    scheme = BroadcastScheme(30, 4) if path == "run_broadcast_job" else BlockScheme(30, 3)
    computation = PairwiseComputation(scheme, exact_dot, engine=SerialEngine())
    flag = "return_result" if path == "run_broadcast_job" else "return_pipeline"
    merged, result = getattr(computation, path)(data, **{flag: True})
    assert _digest(merged) == RECORDS_DIGEST
    assert result.counters.as_dict() == PARENT[path]
    # Pickle-size identity: Python ints and floats, never numpy scalars.
    for element in merged.values():
        assert all(type(p) is int and type(r) is float for p, r in element.results.items())


def plain_concat(copies):
    """An aggregator without a ``needs_payload`` declaration: may read payloads."""
    assert all(copy.payload is not None for copy in copies)
    return merge_copies(copies)


def test_unknown_aggregator_keeps_payloads_on_leg_two():
    """No declaration, no stripping: the bytes ``run`` moved before payload routing."""
    computation = PairwiseComputation(
        BlockScheme(30, 3), exact_dot, engine=SerialEngine(), aggregator=plain_concat
    )
    merged, result = computation.run(golden_data(), return_pipeline=True)
    assert _digest(merged) == RECORDS_DIGEST
    expected = {**PARENT["run"]["framework"]}
    expected["map_output_bytes"] = expected["shuffle_bytes"] = RUN_BYTES_WITH_PAYLOADS
    assert result.counters.as_dict() == {**PARENT["run"], "framework": expected}
