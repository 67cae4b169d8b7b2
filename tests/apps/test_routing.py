"""The apps run on the payload route ``auto_pairwise`` prices for the caller's scheme.

``knn_graph``, ``covariance_via_pairwise``, ``dbscan_pairwise`` and
``pairwise_similarity`` take a scheme and hand it to ``auto_pairwise``, so
``route_payloads`` (8 nodes by default) picks the plan: a scheme that
replicates each element more than 8 times keeps its payloads in the
distributed cache, one that replicates 8 times or fewer shuffles them, and
a broadcast scheme keeps them in the cache too (the paper's §5.1 form, the
``"broadcast"`` case below).  The cached plan is one job for every scheme.
The jobs an engine runs are read from its ``PhaseMarker`` events; every
route's output is the app's own reference output.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps.covariance import (
    assemble_covariance,
    center_rows,
    covariance_reference,
    covariance_via_pairwise,
    row_inner_product,
)
from repro.apps.dbscan import dbscan_pairwise, dbscan_reference
from repro.apps.docsim import brute_force_similarity, build_tfidf, pairwise_similarity
from repro.apps.knn import knn_graph, knn_reference
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce.controlplane.events import PhaseMarker
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine
from repro.workloads import make_blobs, make_documents, make_matrix

V = 30
THRESHOLD = 0.2

#: case -> (a scheme route_payloads routes, the MR jobs that route runs)
ROUTES = {
    # replication 10 > 8 localisations of the store
    "cache": (lambda: BlockScheme(V, 10), ["pairwise-cached"]),
    # replication 4 <= 8
    "shuffle": (
        lambda: BlockScheme(V, 4),
        ["pairwise-distribute-compute", "pairwise-aggregate"],
    ),
    # a broadcast store that fits a slot
    "broadcast": (lambda: BroadcastScheme(V, 4), ["pairwise-cached"]),
}


@pytest.fixture(scope="module")
def engines():
    with MultiprocessEngine(max_workers=2) as pool:
        yield {"serial": SerialEngine(), "pool": pool}


@contextmanager
def jobs_of(engine):
    """The names of the jobs ``engine`` runs while the block runs, in order."""
    seen = []
    engine.events.subscribe(seen.append)
    names = []
    try:
        yield names
    finally:
        engine.events.unsubscribe(seen.append)
        names.extend(dict.fromkeys(e.job for e in seen if isinstance(e, PhaseMarker)))


def points():
    return make_blobs(V, dim=3, num_clusters=3, spread=0.7, seed=11)


def check_knn(scheme, engine):
    got = knn_graph(points(), 4, scheme, engine=engine)
    assert got.neighbors == knn_reference(points(), 4).neighbors


def check_covariance(scheme, engine):
    matrix = make_matrix(V, 12, seed=5)
    got = covariance_via_pairwise(matrix, scheme, engine=engine)
    rows = center_rows(matrix)
    local = PairwiseComputation(scheme, row_inner_product).run_local(rows)
    np.testing.assert_allclose(got, assemble_covariance(local.pairs(), rows), rtol=1e-12)
    np.testing.assert_allclose(got, covariance_reference(matrix), rtol=1e-12, atol=1e-12)


def check_dbscan(scheme, engine):
    got = dbscan_pairwise(points(), 1.5, 3, scheme, engine=engine)
    assert got == dbscan_reference(points(), 1.5, 3)


def check_docsim(scheme, engine):
    vectors = build_tfidf(
        make_documents(V, vocabulary=120, length=30, num_topics=4, topic_strength=0.85, seed=11)
    )
    got = pairwise_similarity(vectors, scheme, engine=engine, threshold=THRESHOLD)
    want = brute_force_similarity(vectors, threshold=THRESHOLD)
    assert got.keys() == want.keys() and want
    assert got == pytest.approx(want, rel=1e-12)


APPS = {
    "knn": check_knn,
    "covariance": check_covariance,
    "dbscan": check_dbscan,
    "docsim": check_docsim,
}


@pytest.mark.parametrize("engine", ["serial", "pool"])
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("app", sorted(APPS))
def test_app_runs_the_priced_route(app, route, engine, engines):
    scheme, expected_jobs = ROUTES[route]
    with jobs_of(engines[engine]) as jobs:
        APPS[app](scheme(), engines[engine])
    # The checks' reference runs are in-process: only the app's own run reaches the engine.
    assert jobs == expected_jobs


@pytest.mark.parametrize("engine", ["serial", "pool"])
def test_pruned_knn_on_the_cache_route_is_unpruned_knn(engine, engines):
    scheme, expected_jobs = ROUTES["cache"]
    with jobs_of(engines[engine]) as jobs:
        pruned = knn_graph(points(), 4, scheme(), engine=engines[engine], pruning="sketch")
    assert jobs == expected_jobs
    assert pruned.neighbors == knn_graph(points(), 4, scheme(), engine=engines[engine]).neighbors
