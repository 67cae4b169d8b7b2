"""The reduce wave: a pool's default reducer count is capped at its reduce slots.

``PairwiseComputation`` defaults to a reducer per 8 working sets; on a
:class:`MultiprocessEngine` that count is capped at the engine's
``reduce_slots`` (two per worker), on the serial engine it is not.  The
count moves only how result blocks are partitioned, so a pooled run under
the capped default returns what it returns under the uncapped rule, and
the ledger ``evaluations + pairs_pruned == v(v−1)/2`` holds under both.

The same count sizes ``run_cached``'s compute wave: its one job carves the
task descriptors into ``num_reduce_tasks`` map splits, the compute tasks
the two-job plan ran, unless the caller passes ``num_map_tasks``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.apps.dbscan import euclidean_distance
from repro.apps.docsim import build_tfidf, cosine_similarity
from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.pairwise import EVALUATIONS, PAIRS_PRUNED, PAIRWISE_GROUP, PairwiseComputation
from repro.core.quorum import QuorumScheme
from repro.mapreduce.controlplane.events import PhaseMarker
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine
from repro.workloads.generator import make_blobs, make_documents

V = 40
H = 10  # 55 working sets: the uncapped rule's 6 reducers, above 2 workers' 4 slots


def uncapped(scheme):
    """The default before the cap: a reducer per 8 working sets, at least 1."""
    return max(1, scheme.num_tasks // 8)


@pytest.fixture(scope="module")
def pool():
    with MultiprocessEngine(max_workers=2) as engine:
        yield engine


class TestTheRule:
    def test_a_pool_holds_two_reduce_tasks_per_worker(self):
        assert MultiprocessEngine(max_workers=2).reduce_slots == 4
        assert MultiprocessEngine(max_workers=3).reduce_slots == 6
        # max_workers=None: as many workers as the executor itself would start
        with ProcessPoolExecutor() as executor:
            assert MultiprocessEngine().reduce_slots == 2 * executor._max_workers
        assert SerialEngine().reduce_slots is None

    @pytest.mark.parametrize("h", [3, 7, 8, 10, 24])
    def test_default_is_a_reducer_per_8_tasks_capped_at_the_slots(self, h, pool):
        scheme = BlockScheme(300, h)
        for engine, expected in (
            (pool, min(uncapped(scheme), 4)),
            (SerialEngine(), uncapped(scheme)),
            (None, uncapped(scheme)),
        ):
            runner = PairwiseComputation(scheme, euclidean_distance, engine=engine)
            assert runner.num_reduce_tasks == expected

    def test_an_explicit_count_wins_and_zero_still_raises(self, pool):
        scheme = BlockScheme(V, H)
        for engine in (pool, SerialEngine()):
            runner = PairwiseComputation(
                scheme, euclidean_distance, engine=engine, num_reduce_tasks=9
            )
            assert runner.num_reduce_tasks == 9
            with pytest.raises(ValueError, match="must be >= 1"):
                PairwiseComputation(scheme, euclidean_distance, engine=engine, num_reduce_tasks=0)


def docsim_join(engine, **knobs):
    vectors = build_tfidf(
        make_documents(V, vocabulary=120, length=30, num_topics=4, topic_strength=0.85, seed=11)
    )
    runner = PairwiseComputation(
        BlockScheme(V, H), cosine_similarity, engine=engine, kernel="auto",
        threshold=0.3, pruning="sketch", **knobs,
    )
    return runner, "run_cached", vectors


def knn_topk(engine, **knobs):
    points = make_blobs(V, dim=3, num_clusters=3, spread=0.7, seed=11)
    runner = PairwiseComputation(
        BlockScheme(V, H), euclidean_distance, engine=engine, kernel="auto",
        top_k=3, pruning="sketch", **knobs,
    )
    return runner, "run", list(points)


@pytest.mark.parametrize("workload", [docsim_join, knn_topk])
def test_the_capped_wave_returns_what_the_uncapped_rule_returns(workload, pool):
    outputs = []
    for knobs in ({}, {"num_reduce_tasks": uncapped(BlockScheme(V, H))}):
        runner, path, data = workload(pool, **knobs)
        merged = getattr(runner, path)(data)  # fused, as a default run goes
        _unfused, pipeline = getattr(runner, path)(data, return_pipeline=True)
        jobs = {"run": 2, "run_cached": 1}[path]
        assert [stage.num_reduce_tasks for stage in pipeline.stages] == [
            runner.num_reduce_tasks
        ] * jobs
        counters = pipeline.counters
        evaluated = counters.get(PAIRWISE_GROUP, EVALUATIONS)
        pruned = counters.get(PAIRWISE_GROUP, PAIRS_PRUNED)
        assert pruned > 0 and evaluated + pruned == V * (V - 1) // 2
        outputs.append((runner.num_reduce_tasks, merged.pairs()))
    (capped, capped_pairs), (old, old_pairs) = outputs
    assert (capped, old) == (4, 6)
    assert capped_pairs == old_pairs


def test_a_wide_fused_fan_in_past_the_slots(pool):
    """An explicit count above the cap still runs: 9 × 9 fused segments on 2 workers."""
    runner, path, data = knn_topk(pool, num_reduce_tasks=9)
    fused_before = pool.stats.fused_stages
    seen = []
    pool.events.subscribe(seen.append)
    try:
        merged = getattr(runner, path)(data)
    finally:
        pool.events.unsubscribe(seen.append)
    assert pool.stats.fused_stages == fused_before + 1
    reduce_waves = [
        event.num_tasks for event in seen
        if isinstance(event, PhaseMarker) and event.kind == "reduce" and event.state == "started"
    ]
    assert reduce_waves == [9, 9]
    serial, _path, _data = knn_topk(SerialEngine(), num_reduce_tasks=9)
    assert merged.pairs() == getattr(serial, path)(data).pairs()


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize(
    "scheme",
    [BlockScheme(V, H), DesignScheme(V), QuorumScheme(V)],
    ids=("block", "design", "quorum"),
)
def test_the_cached_plan_computes_in_a_map_task_per_reducer(scheme, engine, pool):
    """Default: a map task per reducer (4 on the pool, 5 or 6 serial); an explicit 3 wins."""
    engine = pool if engine == "pool" else SerialEngine()
    data = make_blobs(V, dim=3, num_clusters=3, spread=0.7, seed=11)
    runner = PairwiseComputation(scheme, euclidean_distance, engine=engine)
    reference = runner.run_local(data).pairs()
    for knobs, expected in (({}, runner.num_reduce_tasks), ({"num_map_tasks": 3}, 3)):
        seen = []
        engine.events.subscribe(seen.append)
        try:
            merged = runner.run_cached(data, **knobs)
        finally:
            engine.events.unsubscribe(seen.append)
        map_waves = [
            event.num_tasks for event in seen
            if isinstance(event, PhaseMarker) and event.kind == "map" and event.state == "started"
        ]
        assert map_waves == [expected] and expected < scheme.num_tasks
        assert merged.pairs() == reference
