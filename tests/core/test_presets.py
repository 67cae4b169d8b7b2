"""``run`` / ``run_cached`` / ``run_broadcast_job`` are presets of one executor.

Every preset must return what ``run_local`` — the scalar in-process
reference — returns, for every scheme family the preset allows, both
orientations, pruning off and on, on the serial engine and on a pool.
"""

import numpy as np
import pytest

from repro.apps.dbscan import euclidean_distance
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import Element
from repro.core.pairwise import (
    EVALUATIONS,
    PAIRS_PRUNED,
    PAIRWISE_GROUP,
    CachedComputeReducer,
    ComputeReducer,
    PairwiseComputation,
)
from repro.core.quorum import QuorumScheme
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Context
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine

V = 20
THRESHOLD = 5.0

SCHEMES = {
    "broadcast": lambda: BroadcastScheme(V, 4),
    "block": lambda: BlockScheme(V, 3),
    "design": lambda: DesignScheme(V),
    "quorum": lambda: QuorumScheme(V),
}
PRESETS = [
    (path, scheme)
    for path in ("run", "run_cached", "run_broadcast_job")
    for scheme in SCHEMES
    if path != "run_broadcast_job" or scheme == "broadcast"
]
#: (symmetric, pruning); sketch pruning is symmetric-only by construction
MODES = [(True, "off"), (False, "off"), (True, "sketch")]


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
    with MultiprocessEngine(max_workers=2) as pool:
        yield {"serial": SerialEngine(), "pool": pool}


def computation(scheme, symmetric, pruning, engine=None):
    if pruning == "sketch":
        return PairwiseComputation(
            SCHEMES[scheme](), euclidean_distance, engine=engine,
            threshold=THRESHOLD, pruning="sketch",
        )
    comp = euclidean_distance if symmetric else signed_gap
    return PairwiseComputation(SCHEMES[scheme](), comp, engine=engine, symmetric=symmetric)


def result_maps(merged):
    return {eid: element.results for eid, element in merged.items()}


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("symmetric,pruning", MODES)
@pytest.mark.parametrize("path,scheme", PRESETS)
def test_preset_agrees_with_run_local(path, scheme, symmetric, pruning, engine, engines):
    data = points()
    flag = "return_result" if path == "run_broadcast_job" else "return_pipeline"
    runner = computation(scheme, symmetric, pruning, engines[engine])
    merged, result = getattr(runner, path)(data, **{flag: True})
    assert sorted(merged) == list(range(1, V + 1))
    assert result_maps(merged) == result_maps(runner.run_local(data))
    if symmetric:
        evaluations = result.counters.get(PAIRWISE_GROUP, EVALUATIONS)
        pruned = result.counters.get(PAIRWISE_GROUP, PAIRS_PRUNED)
        assert evaluations + pruned == V * (V - 1) // 2
        assert (pruned > 0) == (pruning == "sketch")


@pytest.mark.parametrize("path", ["run", "run_cached", "run_broadcast_job"])
def test_fully_pruned_element_is_still_returned(path):
    """Regression: the one-job path dropped an element all of whose pairs were pruned."""
    merged = getattr(computation("broadcast", True, "sketch"), path)(points())
    assert sorted(merged) == list(range(1, V + 1))
    assert merged[V].results == {}
    assert merged[V].payload == (1000.0, 1000.0)


@pytest.mark.parametrize(
    "reducer,values",
    [
        (ComputeReducer, [Element(1, 0.5), Element(2, 1.5), Element(2, 1.5)]),
        (CachedComputeReducer, [1, 2, 2]),
    ],
)
def test_member_delivered_twice_raises(reducer, values):
    context = Context(
        Counters(),
        cache={"dataset": {1: 0.5, 2: 1.5}},
        config={"scheme": BlockScheme(4, 2)},
    )
    task = reducer()
    task.setup(context)
    with pytest.raises(ValueError, match="^working set 3 received element 2 twice$"):
        task.reduce(3, iter(values), context)


@pytest.mark.parametrize("bad", [{"max_attempts": 0}, {"num_reduce_tasks": 0}])
def test_range_checks_precede_owned_engine_construction(bad, monkeypatch):
    """A rejected knob must not leave a worker pool behind for the finalizer."""
    built = []
    monkeypatch.setattr(
        "repro.core.pairwise.MultiprocessEngine", lambda **kwargs: built.append(kwargs)
    )
    with pytest.raises(ValueError, match="must be >= 1"):
        PairwiseComputation(BlockScheme(V, 3), euclidean_distance, data_plane="default", **bad)
    assert built == []
