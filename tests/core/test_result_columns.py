"""Result columns: the columnar aggregate fold, ``PairResults`` and its dense view.

The aggregate reducer folds a partition's result blocks as columns.  The
reference kept here is the Element fold it replaced: every element rebuilt
from its slices in arrival order into one result map, then
``aggregator([element])``.  On any partition the two must give the same
elements — the same partners, the same result objects (compared by
``repr``, so ``-0.0`` and NaN count), in the same order — and fail on the
same blocks with the same message.  The top-k fold selects before it
sorts, and sorts each owner's candidates apart; the one ``lexsort`` of
every entry it replaced is kept here as its oracle.  ``decode_blocks``
refuses a block whose columns do not line up, whatever length changed.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._util import kth_smallest
from repro.core.aggregate import (
    ConcatAggregator,
    ThresholdAggregator,
    TopKAggregator,
    fold_columns,
)
from repro.core.bipartite import BipartiteBlockScheme
from repro.core.block import BlockScheme
from repro.core.element import (
    DuplicatePairError,
    Element,
    PairResults,
    decode_blocks,
    encode_block,
)
from repro.core.hierarchical import HierarchicalBlockScheme
from repro.core.pairwise import AggregateReducer, PairwiseComputation, brute_force_results
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Context
from repro.mapreduce.runtime import SerialEngine

V = 12
IDS = st.integers(min_value=1, max_value=V)
NAN = float("nan")
#: few distinct values, so ties are common; NaN, signed zeros and infinities included
FLOATS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5, 1.0, -1.0, math.inf, NAN])
OBJECTS = st.integers(min_value=-2, max_value=2)  # Python ints: an object column


@st.composite
def partitions(draw):
    """One partition's result blocks, as raw Python columns: ``[(ids, counts, partners, values)]``.

    Entries are spread over three blocks and over several runs per block
    (an element reaches a compute task once per working set), in random
    order; some runs are empty (a member with no results in that working
    set).  ``floats`` says whether the values form a float64 column.
    """
    floats = draw(st.booleans())
    pairs = draw(st.sets(st.tuples(IDS, IDS).filter(lambda p: p[0] < p[1]), max_size=25))
    values = FLOATS if floats else OBJECTS
    entries = [(o, p, draw(values)) for i, j in sorted(pairs) for o, p in ((i, j), (j, i))]
    runs: dict[tuple[int, int, int], list] = {}
    for owner, partner, value in draw(st.permutations(entries)):
        slot = (draw(st.integers(0, 2)), draw(st.integers(0, 1)), owner)
        runs.setdefault(slot, []).append((partner, value))
    for eid in draw(st.lists(IDS, max_size=4)):
        runs.setdefault((draw(st.integers(0, 2)), 2, eid), [])
    blocks = []
    for number in range(3):
        mine = draw(st.permutations(sorted(slot for slot in runs if slot[0] == number)))
        if mine:
            blocks.append((
                [slot[2] for slot in mine],
                [len(runs[slot]) for slot in mine],
                [partner for slot in mine for partner, _ in runs[slot]],
                [value for slot in mine for _, value in runs[slot]],
            ))
    return floats, blocks or [([1], [0], [], [])]


def wire(blocks, floats):
    """Raw columns → result blocks in their wire form."""
    return [
        encode_block(ids, counts, np.array(partners, dtype=np.int64),
                     np.array(values, dtype=float) if floats else list(values), V)
        for ids, counts, partners, values in blocks
    ]


def element_fold(blocks, aggregator):
    """The reference: each element rebuilt from its slices in arrival order, then aggregated."""
    slices: dict[int, tuple[list, list]] = {}
    for ids, counts, partners, values in blocks:
        lo = 0
        for eid, count in zip(ids, counts):
            got_partners, got_values = slices.setdefault(eid, ([], []))
            got_partners += partners[lo : lo + count]
            got_values += values[lo : lo + count]
            lo += count
    folded = {}
    for eid in sorted(slices):
        partners, values = slices[eid]
        element = Element(eid)
        for partner, value in zip(partners, values):
            element.add_result(partner, value)  # raises, naming the pair
        folded[eid] = aggregator([element])
    return folded


def column_fold(blocks, aggregator):
    """The aggregate reducer over the same blocks, read back through ``PairResults``."""
    context = Context(
        Counters(),
        config={"aggregator": aggregator, "scheme": BlockScheme(V, 3)},
    )
    task = AggregateReducer()
    task.setup(context)
    task.reduce(0, iter(blocks), context)
    ((_partition, block),) = context.drain()
    return dict(PairResults([block], v=V))


def shown(elements):
    """Every element's results, in order, by ``repr``: NaN and ``-0.0`` compare too."""
    return repr([(eid, list(elements[eid].results.items())) for eid in sorted(elements)])


AGGREGATORS = st.one_of(
    st.just(ConcatAggregator()),
    st.builds(ThresholdAggregator, st.sampled_from([0.0, 0.5, 1]), keep_below=st.booleans()),
    st.builds(TopKAggregator, st.integers(1, 3), smallest=st.booleans()),
)


@given(partition=partitions(), aggregator=AGGREGATORS)
@settings(max_examples=150, deadline=None)
def test_columnar_fold_equals_the_element_fold(partition, aggregator):
    floats, blocks = partition
    expected = element_fold(blocks, aggregator)
    assert shown(column_fold(wire(blocks, floats), aggregator)) == shown(expected)


@given(partition=partitions(), aggregator=AGGREGATORS, data=st.data())
@settings(max_examples=80, deadline=None)
def test_injected_duplicate_or_self_pair_fails_like_the_element_fold(
    partition, aggregator, data
):
    floats, blocks = partition
    number = data.draw(st.integers(0, len(blocks) - 1))
    ids, counts, partners, values = blocks[number]
    owners = [eid for eid, count in zip(ids, counts) for _ in range(count)]
    filed = list(zip(owners, partners))
    if filed and data.draw(st.booleans()):
        owner, partner = data.draw(st.sampled_from(filed))  # deliver (owner, partner) again
    else:
        owner = partner = data.draw(IDS)
    blocks = [*blocks, ([owner], [1], [partner], [0.0 if floats else 0])]
    with pytest.raises((ValueError, DuplicatePairError)) as expected:
        element_fold(blocks, aggregator)
    with pytest.raises(type(expected.value)) as actual:
        column_fold(wire(blocks, floats), aggregator)
    assert str(actual.value) == str(expected.value)


# -- top-k ranks NaN after every number, whatever the insertion order -------------


@pytest.mark.parametrize(
    "k,smallest,kept",
    [
        (2, True, [4, 5]),
        (2, False, [5, 4]),
        (3, True, [4, 5, 2]),  # NaNs last, the lower id first
        (3, False, [5, 4, 7]),  # NaNs last, the higher id first
    ],
)
def test_top_k_ranks_nan_after_every_number_in_any_order(k, smallest, kept):
    results = {2: NAN, 4: 0.1, 5: 0.3, 7: NAN}
    aggregator = TopKAggregator(k, smallest=smallest)
    for order in itertools.permutations(results):
        element = Element(1)
        element.results = {partner: results[partner] for partner in order}
        assert list(aggregator([element]).results) == kept, order
        owners = np.ones(len(order), dtype=np.int64)
        partners = np.array(order, dtype=np.int64)
        folded = fold_columns(aggregator, owners, partners, np.array([results[p] for p in order]))
        assert folded[1].tolist() == kept, order


# -- top-k selects, then sorts the candidates: the full sort is the oracle ---------


def sorted_fold(aggregator, owners, partners, results):
    """The top-k column fold before selection: one lexsort of every entry, cut at k per owner."""
    unordered = np.isnan(results)
    sign = 1 if aggregator.smallest else -1
    ranked = sign * np.where(unordered, 0.0, results)
    order = np.lexsort((sign * partners, ranked, unordered, owners))
    owners = owners[order]
    keep = np.arange(len(owners)) - np.searchsorted(owners, owners) < aggregator.k
    return owners[keep], partners[order][keep], results[order][keep]


#: a small pool, so ties at the k-th value are common
POOL = np.array([0.0, -0.0, 0.5, 1.0, -1.0, math.inf, -math.inf, NAN])


def columns(lengths, values):
    """Owners 1, 2, ... with ``lengths`` entries each (partners shuffled), then ``values``."""
    rng = np.random.default_rng(len(values))
    owners = np.repeat(np.arange(1, len(lengths) + 1), lengths)
    partners = np.concatenate([rng.permutation(n) + 100 for n in lengths] or [np.empty(0, int)])
    return owners.astype(np.int64), partners.astype(np.int64), np.asarray(values, dtype=float)


def shown_columns(folded):
    return repr([column.tolist() for column in folded])


@given(
    lengths=st.lists(st.integers(0, 200), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, len(POOL)),
    k=st.one_of(st.integers(1, 12), st.integers(1, 205)),  # mostly runs past 2k: partitioned
    smallest=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_top_k_selection_equals_the_full_sort(lengths, seed, width, k, smallest):
    rng = np.random.default_rng(seed)
    values = rng.choice(rng.choice(POOL, width, replace=False), sum(lengths))
    aggregator = TopKAggregator(k, smallest=smallest)
    owners, partners, results = columns(lengths, values)
    expected = sorted_fold(aggregator, owners, partners, results)
    got = fold_columns(aggregator, owners, partners, results)
    assert shown_columns(got) == shown_columns(expected)


FILLS = {
    "ties": lambda n: [0.5] * n,
    "nan": lambda n: [NAN] * n,
    "distinct": lambda n: np.linspace(1, 0, n).tolist(),
    "mixed": lambda n: [(1.0, NAN, -0.0, math.inf)[i % 4] for i in range(n)],
}


@pytest.mark.parametrize("smallest", [True, False])
@pytest.mark.parametrize("fill", sorted(FILLS))
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("over", ["0", "1", "k + 1", "2k"])  # entries past k in owner 1's run
def test_top_k_at_and_past_the_cut(over, k, fill, smallest):
    n = k + {"0": 0, "1": 1, "k + 1": k + 1, "2k": 2 * k}[over]
    aggregator = TopKAggregator(k, smallest=smallest)
    owners, partners, results = columns([n, 3], [*FILLS[fill](n), 0.5, NAN, -0.0])
    got = fold_columns(aggregator, owners, partners, results)
    assert shown_columns(got) == shown_columns(sorted_fold(aggregator, owners, partners, results))
    assert np.bincount(got[0], minlength=3).tolist() == [0, k, min(k, 3)]


@pytest.mark.parametrize("k", [1, 3, 5, 6])
def test_kth_smallest_reads_a_sort_off_every_segment(k):
    keys = np.array([3.0, NAN, 1.0, 1.0, 2.0, NAN, 0.0, -0.0, math.inf, 5.0, 4.0])
    starts, lengths = np.array([0, 2, 6, 6, 11]), np.array([2, 4, 5, 0, 0])
    expected = [
        np.sort(keys[a : a + n])[k - 1] if n >= k else math.inf for a, n in zip(starts, lengths)
    ]
    np.testing.assert_array_equal(kth_smallest(keys, starts, lengths, k), expected)  # NaN == NaN


# -- decode_blocks refuses columns that do not line up ----------------------------

MUTATIONS = ("partner byte added", "partner byte dropped", "result added", "result dropped",
             "count bumped", "count dropped", "id dropped")


def mutate(block, mutation):
    """``block`` with one column's length changed by ``mutation``; falsy if nothing to drop."""
    ids, counts, raw, values = block
    one = b"\x00" if isinstance(values, bytes) else [0.0]
    changed = {
        "partner byte added": lambda: (ids, counts, raw + b"\x01", values),
        "partner byte dropped": lambda: raw and (ids, counts, raw[:-1], values),
        "result added": lambda: (ids, counts, raw, values + one),
        "result dropped": lambda: values and (ids, counts, raw, values[:-1]),
        "count bumped": lambda: (ids, [counts[0] + 1, *counts[1:]], raw, values),
        "count dropped": lambda: (ids, counts[:-1], raw, values),
        "id dropped": lambda: (ids[:-1], counts, raw, values),
    }[mutation]()
    return changed


@given(partition=partitions(), mutation=st.sampled_from(MUTATIONS), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_block_whose_columns_do_not_line_up_raises(partition, mutation, data):
    floats, blocks = partition
    blocks = wire(blocks, floats)
    decode_blocks(blocks)
    number = data.draw(st.integers(0, len(blocks) - 1))
    mutated = mutate(blocks[number], mutation)
    assume(mutated)
    blocks[number] = mutated
    if mutation == "partner byte added" and len(mutated[2]) == 2:
        # One uint8 partner and a byte more are one well-formed uint16 partner.
        assert len(decode_blocks(blocks)[2]) == sum(sum(block[1]) for block in blocks)
        return
    with pytest.raises(ValueError, match=f"result block {number} is malformed"):
        decode_blocks(blocks)


@pytest.mark.parametrize(
    "block",
    [
        ([1, 2], [1, 1], b"\x01\x02\x03", b"\x00" * 16),  # 3 partner bytes for 2 entries
        ([1], [0], b"\x05", b""),  # a partner for no entry
        ([1, 2], [1, 1], b"\x01\x02", b"\x00" * 8),  # 1 result for 2 entries
    ],
)
def test_malformed_blocks_that_used_to_decode_raise(block):
    with pytest.raises(ValueError, match="result block 1 is malformed"):
        decode_blocks([([3], [1], b"\x01", b"\x00" * 8), block])


# -- PairResults ------------------------------------------------------------------


def test_pair_results_build_elements_on_first_access_only():
    block = encode_block([3, 1], [2, 0], np.array([1, 2]), np.array([0.5, 0.25]), 3)
    payloads = {1: "one", 3: "three"}
    results = PairResults([block], v=3, payloads=payloads)
    assert list(results) == [3, 1] and len(results) == 2
    assert 3 in results and 2 not in results and not results._built  # no element built
    element = results[3]
    assert element == Element(3, "three", {1: 0.5, 2: 0.25})
    assert all(type(p) is int and type(r) is float for p, r in element.results.items())
    assert results[3] is element and results[1].results == {}
    with pytest.raises(KeyError):
        results[2]


def euclid(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def test_dense_view_is_sized_by_the_schemes_v_on_a_round():
    """Round 3 of a 40-element schedule holds elements 21..40 only: the view is still 40 × 40."""
    rng = np.random.default_rng(3)
    data = [rng.normal(size=4) for _ in range(40)]
    round_ = list(HierarchicalBlockScheme(40, 2, 2).rounds())[2]
    assert round_.participants() == list(range(21, 41))
    merged = PairwiseComputation(round_, euclid, engine=SerialEngine()).run(data)
    dense = merged.dense()
    assert dense.shape == (40, 40)
    assert not dense[:20].any() and not dense[:, :20].any()
    expected = brute_force_results(data, euclid)
    for i in range(21, 41):
        for j in range(21, i):
            assert dense[i - 1, j - 1] == dense[j - 1, i - 1] == expected[(i, j)]
    assert np.array_equal(PairResults.of(merged).dense(), dense)


def test_dense_view_is_sized_by_the_schemes_v_on_a_bipartite_run():
    """R × S only: the within-R and within-S blocks of the ``v × v`` view read 0."""
    scheme = BipartiteBlockScheme(6, 9, 2, 3)  # S is 1..9, R is 10..15
    rng = np.random.default_rng(4)
    data = [rng.normal(size=3) for _ in range(15)]
    dense = PairwiseComputation(scheme, euclid, engine=SerialEngine()).run(data).dense()
    assert dense.shape == (15, 15)
    assert not dense[:9, :9].any() and not dense[9:, 9:].any()
    for r in range(10, 16):
        for s in range(1, 10):
            assert dense[r - 1, s - 1] == dense[s - 1, r - 1] == euclid(data[r - 1], data[s - 1])
