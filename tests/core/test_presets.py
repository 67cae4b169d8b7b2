"""``run`` / ``run_cached`` / ``run_broadcast_job`` are presets of one executor.

Every preset must return what ``run_local`` — the scalar in-process
reference — returns, for every scheme family the preset allows, both
orientations, pruning off and on, on the serial engine, on a pool, and on
a pool whose task attempts crash and whose spill files rot (``faults``:
retries and spill replay must not change a result or a counter).
The families are all eight schema classes: the flat ones, a cross and a
diagonal round of a §7 schedule, and the two §1 rectangles — the last four
cover fewer pairs than the triangle and leave elements out, and go through
the same executor on the universe and participants they declare.
``auto_pairwise`` picks the preset from the chooser's payload routing; each
routing outcome is held to the same reference, and to handing back the
caller's own payload objects.

Leg 1 ships working sets, not records: one ``WorkingSetBlock`` per (map
task, working set).  The per-record ``emit`` loop it replaced is kept here
as the reference the blocks are held to — same deliveries, same payload
objects, never more accounted bytes — and the presets run over three
payload kinds, so both the stacked and the one-at-a-time reading of an
admitted working set cross both engines.  Leg 2 ships result blocks: at
most one per (compute task, aggregate partition) on every preset, and the
one aggregate reducer still refuses a pair delivered twice.
"""

from collections import Counter
from contextlib import contextmanager
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dbscan import euclidean_distance
from repro.core.aggregate import ConcatAggregator
from repro.core.bipartite import BipartiteBlockScheme, BipartiteBroadcastScheme
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import DuplicatePairError, Element, merge_copies
from repro.core.hierarchical import HierarchicalBlockScheme
from repro.core.pairwise import (
    EVALUATIONS,
    PAIRS_PRUNED,
    PAIRWISE_GROUP,
    REPLICAS_EMITTED,
    AggregateReducer,
    CachedComputeReducer,
    ComputeReducer,
    DistributeMapper,
    PairwiseComputation,
    WorkingSetBlock,
)
from repro.core.quorum import QuorumScheme
from repro.core.runner import auto_pairwise
from repro.mapreduce.controlplane import TASK_RETRIES
from repro.mapreduce.controlplane.events import (
    PhaseMarker,
    ReplicationMeasured,
    SpillWritten,
)
from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    MAP_INPUT_RECORDS,
    SHUFFLE_RECORDS,
    Counters,
)
from repro.mapreduce.faults import CrashFault, FaultPlan
from repro.mapreduce.job import Context, JobResult
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine
from repro.mapreduce.serialization import SizedPayload, record_size
from repro.mapreduce.shm import shm_available

V = 20
THRESHOLD = 5.0



def schedule_round(index):
    """Round ``index`` of the two-group schedule: (1,1), (2,1), (2,2)."""
    return list(HierarchicalBlockScheme(V, 2, 2).rounds())[index]


SCHEMES = {
    "broadcast": lambda: BroadcastScheme(V, 4),
    "block": lambda: BlockScheme(V, 3),
    "design": lambda: DesignScheme(V),
    "quorum": lambda: QuorumScheme(V),
    # Both rounds hold the outlier (id 20); the diagonal one leaves ids 1..10 out.
    "round-cross": lambda: schedule_round(1),
    "round-diagonal": lambda: schedule_round(2),
    # vr + vs = 20: S is ids 1..8, R ids 9..20.
    "bipartite-block": lambda: BipartiteBlockScheme(12, 8, 3, 2),
    "bipartite-broadcast": lambda: BipartiteBroadcastScheme(12, 8, 5),
}
PRESETS = [
    (path, scheme)
    for path in ("run", "run_cached", "run_broadcast_job")
    for scheme in SCHEMES
    if path != "run_broadcast_job" or scheme == "broadcast"
]
#: (symmetric, pruning); sketch pruning is symmetric-only by construction
MODES = [(True, "off"), (False, "off"), (True, "sketch"), (True, "topk-sketch")]
#: pruning mode -> the objective it declares; top-k taus come from the schema's own pairs
OBJECTIVES = {
    "off": {},
    "sketch": {"threshold": THRESHOLD, "pruning": "sketch"},
    "topk-sketch": {"top_k": 3, "pruning": "sketch"},
}


def signed_gap(a, b):
    """Order-sensitive pair function: comp(a, b) == -comp(b, a)."""
    return float(a[0] - b[0])


def points():
    """19 points in the unit square plus one far outlier.

    Under ``threshold=5`` every pair of the outlier is provably too far,
    so the sketch pruner drops all of them: the outlier reaches no
    evaluation on any path and must still be in the output.
    """
    rng = np.random.default_rng(5)
    return [*(tuple(p) for p in rng.random((V - 1, 2)).tolist()), (1000.0, 1000.0)]


@pytest.fixture(scope="module")
def engines():
    # Reducers crash twice and read map spills damaged at rate 0.2; maps
    # never crash, so their first attempts publish the damaged files.
    plan = FaultPlan(
        faults=[CrashFault(task_kind="reduce", attempts=(1, 2))], seed=32, corrupt_rate=0.2
    )
    with (
        MultiprocessEngine(max_workers=2) as pool,
        MultiprocessEngine(max_workers=2, max_attempts=3, fault_plan=plan) as faulty,
    ):
        yield {"serial": SerialEngine(), "pool": pool, "pool-faults": faulty}


def computation(scheme, symmetric, pruning, engine=None):
    comp = euclidean_distance if symmetric else signed_gap
    return PairwiseComputation(
        SCHEMES[scheme](), comp, engine=engine, symmetric=symmetric, **OBJECTIVES[pruning]
    )


def result_maps(merged):
    return {eid: element.results for eid, element in merged.items()}


def leg_two(result):
    """A preset run's leg-2 shuffle records, and compute tasks × aggregate partitions."""
    if isinstance(result, JobResult):  # the one-job plan: its only leg carries results
        compute_tasks, aggregate = result.num_map_tasks, result
    else:
        compute, aggregate = result.stages
        compute_tasks = compute.num_reduce_tasks
    shipped = aggregate.counters.get(FRAMEWORK_GROUP, SHUFFLE_RECORDS)
    return shipped, compute_tasks * aggregate.num_reduce_tasks


@pytest.mark.parametrize(
    "engine", ["serial", "pool", pytest.param("pool-faults", marks=pytest.mark.faults)]
)
@pytest.mark.parametrize("symmetric,pruning", MODES)
@pytest.mark.parametrize("path,scheme", PRESETS)
def test_preset_agrees_with_run_local(path, scheme, symmetric, pruning, engine, engines):
    data = points()
    flag = "return_result" if path == "run_broadcast_job" else "return_pipeline"
    runner = computation(scheme, symmetric, pruning, engines[engine])
    replayed = engines["pool-faults"].stats.spill_corruptions
    merged, result = getattr(runner, path)(data, **{flag: True})
    assert sorted(merged) == list(runner.scheme.participants())
    assert result_maps(merged) == result_maps(runner.run_local(data))
    assert all(merged[eid].payload is data[eid - 1] for eid in merged)
    shipped, bound = leg_two(result)
    assert 0 < shipped <= bound  # one result block per (compute task, partition) at most
    if engine == "pool-faults":  # every reducer crashes twice; a damaged spill is replayed
        assert result.counters.get(FRAMEWORK_GROUP, TASK_RETRIES) >= 2
        assert engines["pool-faults"].stats.spill_corruptions > replayed
    if symmetric:
        evaluations = result.counters.get(PAIRWISE_GROUP, EVALUATIONS)
        pruned = result.counters.get(PAIRWISE_GROUP, PAIRS_PRUNED)
        required = runner.scheme.required_pairs()
        assert evaluations + pruned == (V * (V - 1) // 2 if required is None else len(required))
        assert (pruned > 0) == (pruning != "off")


def ragged_total(a, b):
    """Symmetric and exact on the ragged rows: every sum is a small integer."""
    return float(a.sum() + b.sum())


def repr_lengths(a, b):
    return len(repr(a)) + len(repr(b))


def grid_rows():
    """Integer-valued rows: the euclidean kernel and the scalar loop agree to the bit."""
    return list(np.random.default_rng(9).integers(-8, 9, size=(V, 4)).astype(float))


def ragged_rows():
    return [np.arange(1 + eid % 5, dtype=float) for eid in range(V)]


def mixed_objects():
    kinds = [(1, "a"), "text", {"k": 2.5}, 7, None, [1, 2], np.ones(3), SizedPayload(40)]
    return [kinds[eid % len(kinds)] for eid in range(V)]


#: payload kind -> (dataset, pair function, kernel): the first is read through the
#: admitted working set's stacked matrix, the other two one payload at a time
KINDS = {
    "same-shape-rows": (grid_rows, euclidean_distance, "auto"),
    "ragged-rows": (ragged_rows, ragged_total, None),
    "mixed-objects": (mixed_objects, repr_lengths, None),
}


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("path,scheme", PRESETS)
def test_preset_carries_every_payload_kind(path, scheme, kind, engine, engines):
    """Pool-decoded blocks are read-only views: admitting them must not write."""
    dataset, comp, kernel = KINDS[kind]
    data = dataset()
    runner = PairwiseComputation(SCHEMES[scheme](), comp, engine=engines[engine], kernel=kernel)
    merged = getattr(runner, path)(data)
    assert sorted(merged) == list(runner.scheme.participants())
    assert result_maps(merged) == result_maps(runner.run_local(data))
    assert all(merged[eid].payload is data[eid - 1] for eid in merged)


@pytest.mark.parametrize(
    "knobs",
    [
        pytest.param({"shuffle_mode": "relay"}, id="relay"),
        pytest.param(
            {"data_plane": "shm"},
            id="shm",
            marks=[
                pytest.mark.shm,
                pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable"),
            ],
        ),
    ],
)
def test_blocks_cross_the_other_planes_bit_identically(knobs):
    """Relayed chunks and shm-resident stores: same stage records and counters as serial."""
    with MultiprocessEngine(max_workers=2, **knobs) as pool:
        for kind, (dataset, comp, kernel) in KINDS.items():
            data = dataset()  # one list for both engines: payloads compare by identity
            for path in ("run", "run_cached"):
                outcomes = []
                for engine in (SerialEngine(), pool):
                    runner = PairwiseComputation(
                        SCHEMES["quorum"](), comp, engine=engine, kernel=kernel
                    )
                    merged, result = getattr(runner, path)(
                        data, num_map_tasks=3, return_pipeline=True
                    )
                    stages = [(s.records, s.counters.as_dict()) for s in result.stages]
                    outcomes.append((result_maps(merged), stages))
                assert outcomes[0] == outcomes[1], (kind, path)


def test_a_round_ships_and_returns_its_participants_only(engines):
    """Ids 1..10 sit the (2,2) round out: not an input record, not in the output."""
    data = points()
    for path in ("run", "run_cached"):
        runner = PairwiseComputation(schedule_round(2), euclidean_distance, engine=engines["pool"])
        merged, result = getattr(runner, path)(data, return_pipeline=True)
        assert sorted(merged) == list(range(11, V + 1))
        assert result.stages[0].counters.get(FRAMEWORK_GROUP, MAP_INPUT_RECORDS) == 10


def test_shuffle_publishes_one_spill_file_per_producing_task(engines):
    """Files scale with producing tasks, never with tasks × partitions.

    Fused, job 2's input is spilled by job 1's reducers; unfused, by job
    2's own map tasks.  Either way every producer publishes one file, and
    what the run computes does not depend on who spilled.
    """
    pool, data = engines["pool"], points()
    maps, reducers = 4, 3

    def run(engine, **flags):
        """(run's return value, SpillWritten events, metered shuffle bytes)."""
        runner = PairwiseComputation(
            BlockScheme(V, 3), euclidean_distance, engine=engine, num_reduce_tasks=reducers
        )
        events = []
        engine.events.subscribe(events.append)
        try:
            out = runner.run(data, num_map_tasks=maps, **flags)
        finally:
            engine.events.unsubscribe(events.append)
        segments = [event for event in events if isinstance(event, SpillWritten)]
        (measured,) = (event for event in events if isinstance(event, ReplicationMeasured))
        return out, segments, measured.shuffle_bytes

    def pool_run(**flags):
        """``run`` on the pool, plus what it added to (files, bytes, fused stages)."""
        meters = ("spill_files_written", "spill_bytes_written", "fused_stages")
        before = [getattr(pool.stats, name) for name in meters]
        ran = run(pool, **flags)
        return (*ran, [getattr(pool.stats, name) - was for name, was in zip(meters, before)])

    fused, fused_segments, fused_shuffle, fused_added = pool_run()
    (unfused, pipeline), unfused_segments, unfused_shuffle, unfused_added = pool_run(
        return_pipeline=True
    )
    (serial, reference), serial_segments, serial_shuffle = run(
        SerialEngine(), return_pipeline=True
    )

    for (files, spilled, stages), segments, producers, fuses in (
        (fused_added, fused_segments, maps + reducers, 1),
        (unfused_added, unfused_segments, maps + maps, 0),
    ):
        assert (files, stages) == (producers, fuses)
        assert len(segments) > files  # several partitions' segments share a file
        assert spilled == sum(event.num_bytes for event in segments)
    assert serial_segments == []  # the serial engine never spills
    assert result_maps(fused) == result_maps(unfused) == result_maps(serial)
    assert pipeline.counters.as_dict() == reference.counters.as_dict()
    assert fused_shuffle == unfused_shuffle == serial_shuffle


@pytest.mark.parametrize("path", ["run", "run_cached", "run_broadcast_job"])
def test_fully_pruned_element_is_still_returned(path):
    """Regression: the one-job path dropped an element all of whose pairs were pruned."""
    merged = getattr(computation("broadcast", True, "sketch"), path)(points())
    assert sorted(merged) == list(range(1, V + 1))
    assert merged[V].results == {}
    assert merged[V].payload == (1000.0, 1000.0)


# -- auto_pairwise: the chooser's routing picks the preset ---------------------

#: routing outcome -> (auto_pairwise arguments that produce it, the MR jobs it runs)
ROUTES = {
    # the chooser's own pick at this size: broadcast, store in the cache, one job
    "one-job": ({}, ["pairwise-broadcast"]),
    # a difference cover of Z_20 replicates 6-fold; two nodes localise the store twice
    "cache": (
        {"scheme": "quorum", "num_nodes": 2},
        ["pairwise-distribute-compute-cached", "pairwise-aggregate-cached"],
    ),
    # three replicas against eight localisations
    "shuffle": (
        {"scheme": BlockScheme(V, 3)},
        ["pairwise-distribute-compute", "pairwise-aggregate"],
    ),
}


@contextmanager
def watching(engine):
    """The engine's events while the block runs."""
    seen = []
    engine.events.subscribe(seen.append)
    try:
        yield seen
    finally:
        engine.events.unsubscribe(seen.append)


def jobs_run(events):
    return list(dict.fromkeys(e.job for e in events if isinstance(e, PhaseMarker)))


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("symmetric,pruning", MODES)
@pytest.mark.parametrize("routing", sorted(ROUTES))
def test_auto_pairwise_runs_the_priced_route(routing, symmetric, pruning, engine, engines):
    arguments, expected_jobs = ROUTES[routing]
    data = points()
    comp = euclidean_distance if symmetric else signed_gap
    objective = OBJECTIVES[pruning]
    with watching(engines[engine]) as events:
        merged, choice = auto_pairwise(
            data, comp, engine=engines[engine], symmetric=symmetric, **objective, **arguments
        )
    assert choice.routing == routing
    assert jobs_run(events) == expected_jobs
    assert sum(isinstance(e, ReplicationMeasured) for e in events) == 1
    reference = PairwiseComputation(choice.scheme, comp, symmetric=symmetric, **objective)
    assert sorted(merged) == list(range(1, V + 1))
    assert result_maps(merged) == result_maps(reference.run_local(data))
    assert all(merged[eid].payload is data[eid - 1] for eid in merged)


class PayloadCountingAggregator:
    """Reads ``copies[0].payload``, and says so."""

    needs_payload = True

    def __call__(self, copies):
        merged = merge_copies(copies)
        merged.results = {0: (copies[0].payload, len(merged.results))}
        return merged


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("routing", sorted(ROUTES))
def test_aggregator_that_reads_payloads_gets_them_on_every_route(routing, engine, engines):
    data = points()
    merged, choice = auto_pairwise(
        data, euclidean_distance, engine=engines[engine],
        aggregator=PayloadCountingAggregator(), **ROUTES[routing][0],
    )
    assert choice.routing == routing
    assert {eid: element.results[0] for eid, element in merged.items()} == {
        eid: (data[eid - 1], V - 1) for eid in range(1, V + 1)
    }


def block(ids, payloads=None):
    return WorkingSetBlock(ids, payloads, 8 * len(ids))


@pytest.mark.parametrize(
    "reducer,values",
    [
        (ComputeReducer, [block([1, 2], [0.5, 1.5]), block([2], [1.5])]),
        (CachedComputeReducer, [block([1, 2]), block([2])]),
    ],
)
def test_member_delivered_twice_raises(reducer, values):
    context = Context(
        Counters(),
        cache={"dataset": {1: 0.5, 2: 1.5}},
        config={"scheme": BlockScheme(4, 2), "aggregate_partitions": 1},
    )
    task = reducer()
    task.setup(context)
    with pytest.raises(ValueError, match="^working set 3 received element 2 twice$"):
        task.reduce(3, iter(values), context)


def aggregate(blocks):
    """Run the one aggregate reducer over one partition's result blocks."""
    context = Context(
        Counters(), config={"aggregator": ConcatAggregator(), "results_only": True}
    )
    task = AggregateReducer()
    task.setup(context)
    task.reduce(0, iter(blocks), context)
    return dict(context.drain())


def test_aggregate_reducer_folds_blocks_in_arrival_order():
    first = ([3, 5], [2, 1], [5, 7, 3], [0.5, 0.7, 0.5], None)
    second = ([7, 3], [1, 1], [3, 9], [0.7, 0.9], None)
    merged = aggregate([first, second])
    assert sorted(merged) == [3, 5, 7]
    assert list(merged[3].results.items()) == [(5, 0.5), (7, 0.7), (9, 0.9)]


def test_aggregate_reducer_refuses_a_pair_two_tasks_delivered():
    first = ([3, 5], [1, 1], [5, 3], [0.5, 0.5], None)
    second = ([3], [1], [5], [0.25], None)  # another compute task sent (3, 5) again
    with pytest.raises(DuplicatePairError, match=r"^pair \(3, 5\) evaluated more than once$"):
        aggregate([first, second])


def test_aggregate_reducer_refuses_a_self_pair():
    with pytest.raises(ValueError, match="^element 4 paired with itself$"):
        aggregate([([6, 4], [0, 1], [4], [0.0], None)])


# -- leg 1 ships blocks: held to the per-record emit loop they replaced ----------


def per_record_emit(scheme, records):
    """The map phase before blocks: one ``(subset, copy or bare id)`` per membership."""
    for key, value in records:
        bare = value is None
        for subset_id in scheme.get_subsets(key if bare else value.eid):
            yield subset_id, key if bare else value.copy_without_results()


def map_task_output(scheme, records):
    """What one ``DistributeMapper`` task emits for ``records``, and its counters."""
    context = Context(Counters(), config={"scheme": scheme})
    mapper = DistributeMapper()
    mapper.setup(context)
    for key, value in records:
        mapper.map(key, value, context)
    mapper.cleanup(context)
    return context.drain(), context.counters


@given(
    scheme=st.sampled_from(sorted(SCHEMES)),
    bare=st.booleans(),
    cuts=st.sets(st.integers(min_value=0, max_value=V), max_size=6),
)
@settings(max_examples=120, deadline=None)
def test_blocks_deliver_what_the_per_record_loop_delivered(scheme, bare, cuts):
    scheme = SCHEMES[scheme]()
    data = mixed_objects()
    records = [
        (eid, None if bare else Element(eid, data[eid - 1])) for eid in scheme.participants()
    ]
    bounds = sorted({0, len(records), *(cut for cut in cuts if cut < len(records))})
    delivered, delivered_bytes, replicas = Counter(), 0, 0
    for lo, hi in zip(bounds, bounds[1:]):
        output, counters = map_task_output(scheme, records[lo:hi])
        replicas += counters.get(PAIRWISE_GROUP, REPLICAS_EMITTED)
        assert len({key for key, _block in output}) == len(output)  # one block per working set
        for key, shipped in output:
            ids = shipped.ids
            assert type(key) is int and all(type(eid) is int for eid in ids)
            assert (shipped.payloads is None) == bare
            payloads = repeat(None) if bare else shipped.payloads
            delivered.update((key, eid, id(payload)) for eid, payload in zip(ids, payloads))
            delivered_bytes += record_size(key, shipped)
    reference = list(per_record_emit(scheme, records))
    assert delivered == Counter(
        (key, value, id(None)) if bare else (key, value.eid, id(value.payload))
        for key, value in reference
    )
    assert replicas == len(reference)
    assert delivered_bytes <= sum(record_size(key, value) for key, value in reference)


def test_leg_one_shuffles_at_most_a_block_per_map_task_and_working_set():
    scheme, maps = BlockScheme(V, 3), 4
    runner = PairwiseComputation(scheme, euclidean_distance, engine=SerialEngine())
    _merged, result = runner.run(points(), num_map_tasks=maps, return_pipeline=True)
    leg_one = result.stages[0].counters
    replicas = leg_one.get(PAIRWISE_GROUP, REPLICAS_EMITTED)
    assert replicas == V * 3
    assert leg_one.get(FRAMEWORK_GROUP, SHUFFLE_RECORDS) <= maps * scheme.num_tasks < replicas


@pytest.mark.parametrize("bad", [{"num_reduce_tasks": 0}, {"num_reduce_tasks": -1}])
def test_range_checks_precede_owned_engine_construction(bad, monkeypatch):
    """A rejected knob must not leave an engine behind: the default one is built last."""
    built = []
    monkeypatch.setattr("repro.core.pairwise.SerialEngine", lambda: built.append("serial"))
    with pytest.raises(ValueError, match="must be >= 1"):
        PairwiseComputation(BlockScheme(V, 3), euclidean_distance, **bad)
    assert built == []
    PairwiseComputation(BlockScheme(V, 3), euclidean_distance)
    assert built == ["serial"]
