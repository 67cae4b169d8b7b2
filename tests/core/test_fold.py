"""Compute tasks fold a threshold / top-k objective before leg 2, under a pair fingerprint.

A built-in :class:`ThresholdAggregator` or :class:`TopKAggregator` (no
``key=``) is applied where the entries are made: each working set's
columns are folded, and top-k folds a compute task's runs once more, so
the aggregate leg carries what the objective keeps, not every entry.  The
fold would hide a pair delivered twice and dropped in both copies from
the aggregate's ``check_pairs``, so on these runs every compute task adds
the pair fingerprint of the tiles it was given — pruned pairs included —
into ``PAIR_FINGERPRINT``, and the driver compares the sum with the
required tiles' closed form before any result is returned.

The guard is held to two defective schemes the unfolded pipeline misses
or catches only by luck: one whose task 0 drops a pair (no evaluation, no
error: a wrong top-k), and one whose task 1 repeats a pair of task 0.
Every run, folding or not, also compares its evaluations plus pruned
pairs with the required tiles' pair count, so a concat run that drops a
pair raises too, before any result is returned.  A symmetric concat or
threshold run files each pair's result once, under ``(max(i, j), min(i,
j))``, so a pair repeated in the other orientation still reaches the
aggregate's check twice, and leg 2 carries one entry per pair.
"""

import numpy as np
import pytest

from repro.apps.dbscan import euclidean_distance
from repro.core import PairCoverageError
from repro.core.aggregate import ConcatAggregator
from repro.core.block import BlockScheme
from repro.core.element import DuplicatePairError, decode_blocks
from repro.core.pairwise import (
    EVALUATIONS,
    PAIR_FINGERPRINT,
    PAIRS_PRUNED,
    PAIRWISE_GROUP,
    AggregateReducer,
    PairwiseComputation,
    _fingerprint,
    _fingerprint_keys,
)
from repro.core.scheme import Cross, Rows, Triangle, tile_rows
from repro.mapreduce import MultiprocessEngine, SerialEngine, TaskFailedError, resume_job
from repro.mapreduce.controlplane import TASK_ATTEMPTS, TASK_RETRIES
from repro.mapreduce.counters import FRAMEWORK_GROUP, SHUFFLE_BYTES
from repro.mapreduce.faults import FaultPlan

from ..mapreduce.journal_workload import ReduceGate

MASK = (1 << 64) - 1
V = 30
OBJECTIVES = [{"top_k": 3}, {"threshold": 0.3}]
PRUNING = ["off", "sketch"]


def brute_fingerprint(rows, v):
    """Σ ``a_i·b_j + a_j·b_i`` over ``rows``, pair by pair, as Python ints."""
    a, b, _ = _fingerprint_keys(v)[0].tolist()
    return sum(a[i] * b[j] + a[j] * b[i] for i, j in rows.tolist()) & MASK


@pytest.mark.parametrize(
    "tiles",
    [
        (Triangle(range(1, 31)),),
        (Triangle([2, 5, 6, 30]),),
        (Cross(range(11, 21), range(1, 11)),),
        (Cross([21, 25, 29], [3, 4, 9]),),
        (Rows(np.array([[5, 1], [30, 29], [7, 2]])),),
        (Triangle([4]), Cross([], [1, 2]), Rows(np.empty((0, 2), np.int64))),
        (Triangle(range(3, 9)), Cross([12, 13], range(1, 11)), Rows(np.array([[30, 1]]))),
    ],
    ids=["triangle", "sparse-triangle", "cross", "sparse-cross", "rows", "empty", "mixed"],
)
def test_closed_form_is_the_sum_over_the_rows(tiles):
    assert _fingerprint(tiles, V) == brute_fingerprint(tile_rows(tiles), V)


def test_keys_are_fixed_per_v():
    assert _fingerprint((Triangle(range(1, 31)),), 30) == _fingerprint((Triangle(range(1, 31)),), 30)
    _fingerprint_keys.cache_clear()  # a fresh process draws the same keys
    again = _fingerprint((Triangle(range(1, 31)),), 30)
    assert again == brute_fingerprint(tile_rows((Triangle(range(1, 31)),)), 30)
    assert _fingerprint((Triangle(range(1, 31)),), 31) != again


def points():
    """30 points in the unit square; 1 and 2 are far apart, 3 and 4 nearly coincide.

    The pair (2, 1) is in no element's top 3 and fails the threshold, so a
    fold drops every copy of it; the pair (4, 3) is each one's nearest and
    passes, so a fold keeps every copy.
    """
    data = np.random.default_rng(11).random((V, 2))
    data[0], data[1] = (0.0, 0.0), (10.0, 10.0)
    data[2], data[3] = (0.5, 0.5), (0.5, 0.501)
    return list(data)


class DropsAPair(BlockScheme):
    """Task 0 (the triangle over 1..10) silently loses the pair (4, 3)."""

    def pair_tiles(self, subset_id, members=None):
        tiles = super().pair_tiles(subset_id, members)
        if subset_id:
            return tiles
        rows = tile_rows(tiles)
        return (Rows(rows[(rows != (4, 3)).any(axis=1)]),)


class RepeatsAPair(BlockScheme):
    """Task 1 (the cross 11..20 × 1..10, which holds 1..20) also evaluates ``pair``, a pair of task 0."""

    pair = (2, 1)

    def repeated(self):
        return Rows(np.array([self.pair]))

    def pair_tiles(self, subset_id, members=None):
        tiles = super().pair_tiles(subset_id, members)
        return (*tiles, self.repeated()) if subset_id == 1 else tiles


class RepeatsANearPair(RepeatsAPair):
    pair = (4, 3)


class ReversesANearPair(RepeatsAPair):
    pair = (3, 4)


class SwapsANearCross(RepeatsAPair):
    """Task 1 repeats (4, 3) as the cross ``[3] × [4]``: high below low, against its contract."""

    def repeated(self):
        return Cross([3], [4])


def run(scheme, path, objective, pruning, engine=None):
    computation = PairwiseComputation(
        scheme, euclidean_distance, kernel="auto", engine=engine, pruning=pruning, **objective
    )
    return getattr(computation, path)(points(), return_pipeline=True)


@pytest.mark.parametrize("pruning", PRUNING)
@pytest.mark.parametrize("objective", OBJECTIVES, ids=["top_k", "threshold"])
@pytest.mark.parametrize("path", ["run", "run_cached"])
class TestTheGuard:
    def test_a_dropped_pair_raises(self, path, objective, pruning):
        stage = "pairwise-cached" if path == "run_cached" else "pairwise-distribute-compute"
        with pytest.raises(PairCoverageError, match=rf"^block\(v=30, h=3, e=10, tasks=6\): .*'{stage}'"):
            run(DropsAPair(V, 3), path, objective, pruning)

    def test_a_pair_repeated_and_folded_away_raises(self, path, objective, pruning):
        with pytest.raises(PairCoverageError):
            run(RepeatsAPair(V, 3), path, objective, pruning)

    def test_a_pair_repeated_and_kept_is_refused_by_the_aggregate(self, path, objective, pruning):
        with pytest.raises(TaskFailedError) as failed:
            run(RepeatsANearPair(V, 3), path, objective, pruning)
        assert isinstance(failed.value.__cause__, DuplicatePairError)
        # A threshold run files the pair once, under (4, 3); top-k files it both
        # ways, and element 3's copy is the first the check reaches.
        pair = "(4, 3)" if "threshold" in objective else "(3, 4)"
        assert str(failed.value.__cause__) == f"pair {pair} evaluated more than once"

    def test_a_sound_scheme_meters_the_required_fingerprint(self, path, objective, pruning):
        merged, result = run(BlockScheme(V, 3), path, objective, pruning)
        metered = result.counters.get(PAIRWISE_GROUP, PAIR_FINGERPRINT)
        assert metered & MASK == _fingerprint((Triangle(range(1, V + 1)),), V)
        # pruned pairs were never evaluated, yet their tiles were fingerprinted
        assert (result.counters.get(PAIRWISE_GROUP, PAIRS_PRUNED) > 0) == (pruning == "sketch")
        reference = PairwiseComputation(
            BlockScheme(V, 3), euclidean_distance, kernel="auto", **objective
        ).run_local(points())
        assert merged.keys() == reference.keys()
        for eid in merged:
            assert merged[eid].results.keys() == reference[eid].results.keys()


@pytest.fixture(scope="module")
def pool():
    with MultiprocessEngine(max_workers=2) as engine:
        yield engine


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("path", ["run", "run_cached"])
def test_a_concat_run_that_drops_a_pair_raises_before_any_result(path, engine, request, monkeypatch):
    """No fold, no fingerprint: the evaluation count misses the dropped pair."""

    def no_results(*args, **kwargs):
        raise AssertionError("a PairResults was built")

    engine = SerialEngine() if engine == "serial" else request.getfixturevalue("pool")
    monkeypatch.setattr("repro.core.pairwise.PairResults", no_results)
    stage = "pairwise-cached" if path == "run_cached" else "pairwise-distribute-compute"
    named = rf"^block\(v=30, h=3, e=10, tasks=6\): .*'{stage}'.*\(434 .*, required 435\)$"
    with pytest.raises(PairCoverageError, match=named):
        run(DropsAPair(V, 3), path, {}, "off", engine=engine)


@pytest.mark.parametrize("scheme", [ReversesANearPair, SwapsANearCross], ids=["rows", "cross"])
@pytest.mark.parametrize("objective", [{}, {"threshold": 0.3}], ids=["concat", "threshold"])
@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("path", ["run", "run_cached"])
def test_a_pair_filed_once_and_repeated_the_other_way_is_refused(
    path, engine, objective, scheme, request
):
    """Filed once, (3, 4) is keyed (4, 3): both copies reach one owner and the aggregate's check."""
    engine = SerialEngine() if engine == "serial" else request.getfixturevalue("pool")
    with pytest.raises(TaskFailedError) as failed:
        run(scheme(V, 3), path, objective, "off", engine=engine)
    assert isinstance(failed.value.__cause__, DuplicatePairError)
    assert str(failed.value.__cause__) == "pair (4, 3) evaluated more than once"


def test_an_unfolded_run_meters_no_fingerprint():
    """Concat keeps every entry, so the aggregate's check sees every copy: no fingerprint."""
    _merged, result = run(BlockScheme(V, 3), "run_cached", {}, "off")
    assert PAIR_FINGERPRINT not in result.counters.group(PAIRWISE_GROUP)


# -- leg 2 scales with the output ------------------------------------------------


def knn_points(v=200):
    return list(np.random.default_rng(8).random((v, 16)))


@pytest.fixture
def leg_two(monkeypatch):
    """The result blocks that reach the aggregate reducers, as they arrive."""
    arrived = []
    fold = AggregateReducer.reduce

    def watched(self, key, values, context):
        values = list(values)
        arrived.extend(values)
        return fold(self, key, iter(values), context)

    monkeypatch.setattr(AggregateReducer, "reduce", watched)
    return arrived


class CustomConcat(ConcatAggregator):
    """Concat as a custom aggregator: the executor cannot tell what it keeps."""


@pytest.mark.parametrize(
    "options, copies",
    [
        ({}, 1),
        ({"kernel": None}, 1),
        ({"threshold": 100.0}, 1),  # above every distance: keeps every pair
        ({"top_k": V}, 2),  # k above every member's partner count: keeps every entry
        ({"aggregator": CustomConcat()}, 2),
        ({"symmetric": False}, 2),
    ],
    ids=["concat", "concat-scalar", "threshold", "top_k", "custom", "asymmetric"],
)
@pytest.mark.parametrize("path", ["run", "run_cached"])
def test_leg_two_files_a_pair_once_only_on_a_symmetric_concat_or_threshold(
    path, options, copies, leg_two
):
    computation = PairwiseComputation(
        BlockScheme(V, 3), euclidean_distance, num_reduce_tasks=2, **{"kernel": "auto", **options}
    )
    _merged, result = getattr(computation, path)(points(), return_pipeline=True)
    pairs = V * (V - 1) // 2
    orientations = 2 if options.get("symmetric") is False else 1
    assert result.counters.get(PAIRWISE_GROUP, EVALUATIONS) == orientations * pairs
    assert sum(sum(counts) for _ids, counts, _partners, _results in leg_two) == copies * pairs


@pytest.mark.parametrize("path", ["run", "run_cached"])
def test_result_blocks_hold_at_most_k_entries_per_member_and_task(path, leg_two):
    k = 5
    computation = PairwiseComputation(
        BlockScheme(200, 5), euclidean_distance, kernel="auto", top_k=k, num_reduce_tasks=2
    )
    getattr(computation, path)(knn_points(), num_map_tasks=3)
    assert len(leg_two) > 2  # several compute tasks, two aggregate partitions
    for block in leg_two:  # one block per (compute task, aggregate partition)
        ids, counts, _partners, _results = decode_blocks([block])
        assert len(set(ids.tolist())) == len(ids)
        assert counts.max() <= k


def test_leg_two_shrinks_with_the_fold_on_a_knn_shaped_run():
    """The unfolded leg 2 is what a concat run ships: the compute side is the same."""
    data, scheme = knn_points(), BlockScheme(200, 5)
    shipped = {}
    for name, objective in (("concat", {"aggregator": ConcatAggregator()}), ("top_k", {"top_k": 5})):
        computation = PairwiseComputation(
            scheme, euclidean_distance, kernel="auto", engine=SerialEngine(), **objective
        )
        _merged, result = computation.run_cached(data, return_pipeline=True)
        shipped[name] = result.counters.get(FRAMEWORK_GROUP, SHUFFLE_BYTES)
    assert shipped["top_k"] * 5 <= shipped["concat"]


# -- retries and resume keep the fold and the fingerprint ------------------------


def folded_top_k(engine):
    return PairwiseComputation(
        BlockScheme(60, 4), euclidean_distance, kernel="auto", top_k=3, engine=engine
    )


def folded_data():
    return list(np.random.default_rng(21).random((60, 8)))


def without_retries(counters):
    framework = {**counters[FRAMEWORK_GROUP]}
    framework.pop(TASK_RETRIES, None)
    framework.pop(TASK_ATTEMPTS)
    return {**counters, FRAMEWORK_GROUP: framework}


@pytest.mark.faults
@pytest.mark.parametrize("path", ["run", "run_cached"])
def test_a_crashing_pool_returns_the_clean_run(path):
    data = folded_data()
    clean_merged, clean = getattr(folded_top_k(SerialEngine()), path)(data, return_pipeline=True)
    plan = FaultPlan(crash_rate=0.6, seed=4)
    with MultiprocessEngine(max_workers=2, max_attempts=2, fault_plan=plan) as pool:
        merged, result = getattr(folded_top_k(pool), path)(data, return_pipeline=True)
    assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) > 0
    assert result.records == clean.records
    assert without_retries(result.counters.as_dict()) == without_retries(clean.counters.as_dict())
    assert result.counters.get(PAIRWISE_GROUP, PAIR_FINGERPRINT) > 0
    assert {eid: e.results for eid, e in merged.items()} == {
        eid: e.results for eid, e in clean_merged.items()
    }


@pytest.mark.durability
def test_a_resumed_journal_returns_the_clean_run(tmp_path):
    """Abandoned after its map phase, two map tasks' spills lost, resumed: the clean run."""
    data, journal_dir, gate = folded_data(), tmp_path / "journal", tmp_path / "gate"
    plan = ReduceGate(gate=str(gate))
    with MultiprocessEngine(
        max_workers=2, journal_dir=journal_dir, max_attempts=1, fault_plan=plan
    ) as engine:
        with pytest.raises(TaskFailedError):
            folded_top_k(engine).run_cached(data, num_map_tasks=4)
    for task in (0, 2):
        spills = list(journal_dir.glob(f"*-shuffle/map-{task:05d}-*"))
        assert spills
        for path in spills:
            path.unlink()
    gate.touch()
    outcome = resume_job(journal_dir, max_workers=2)
    assert (outcome.tasks_resumed, outcome.tasks_replayed) == (2, 2)
    with SerialEngine() as engine:
        _merged, clean = folded_top_k(engine).run_cached(data, num_map_tasks=4, return_pipeline=True)
    assert sorted(outcome.result.records) == sorted(clean.records)
    assert outcome.result.counters.as_dict() == clean.counters.as_dict()
    assert clean.counters.get(PAIRWISE_GROUP, PAIR_FINGERPRINT) > 0
