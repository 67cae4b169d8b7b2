"""The cached plan's payload store converts once per process per job.

On ``run_cached`` the distributed cache holds one root
:class:`~repro.kernels.WorkingSetStore` of every participant; a task's
working set is a view of it, and a kernel's matrix form
(``to_matrix``) is built on the root the first time a kernel asks — once per
process per job, whatever the number of working sets.  The store pickles as
the dict it holds, so the cache costs on the wire what it cost before.

Every test that converts runs over both realisations of the CSR kernel —
SciPy's CSR matrix and the NumPy fallback (``_sparse = None``) — and over
the dense kernels' stacked matrix, so a lane without SciPy still drives the
fallback through every engine and data plane.
"""

from __future__ import annotations

import math
import os
import pickle
from collections import Counter

import numpy as np
import pytest

import repro.kernels.sparse as sparse_module
from repro.apps.covariance import row_inner_product
from repro.apps.docsim import build_tfidf, cosine_similarity
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.pairwise import PairwiseComputation
from repro.kernels import CsrCosineKernel, DenseDotKernel, WorkingSetStore
from repro.kernels.base import stack_rows
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine
from repro.mapreduce.runtime import shm_available
from repro.workloads.generator import make_documents

V = 24
REL_TOLERANCE = 1e-9  # the vectorized kernel-parity contract


def documents():
    return build_tfidf(
        make_documents(V, vocabulary=50, length=16, num_topics=3, topic_strength=0.9, seed=2)
    )


def rows():
    return list(np.random.default_rng(2).normal(size=(V, 6)))


def record(log: str) -> None:
    with open(log, "a") as out:
        out.write(f"{os.getpid()}\n")


class CountingCsr(CsrCosineKernel):
    """The CSR kernel, logging the pid of every conversion it asks for."""

    def __init__(self, log):
        self.log = str(log)

    def to_matrix(self, vectors):
        record(self.log)
        return CsrCosineKernel.to_matrix(vectors)


class CountingDense(DenseDotKernel):
    """The dense-dot kernel, logging the pid of every stack it asks for."""

    def __init__(self, log):
        self.log = str(log)

    def to_matrix(self, payloads):
        record(self.log)
        return stack_rows(payloads)


@pytest.fixture(params=["csr-scipy", "csr-numpy", "dense"])
def kind(request, monkeypatch):
    """A kernel realisation: ``(counting kernel class, comp, dataset)``."""
    if request.param == "csr-scipy":
        pytest.importorskip("scipy.sparse")
    elif request.param == "csr-numpy":
        monkeypatch.setattr(sparse_module, "_sparse", None)
    if request.param == "dense":
        return CountingDense, row_inner_product, rows()
    return CountingCsr, cosine_similarity, documents()


ENGINES = [
    pytest.param({}, id="serial"),
    pytest.param({"max_workers": 2}, id="pool"),
    pytest.param(
        {"max_workers": 2, "data_plane": "shm"},
        id="pool-shm",
        marks=[
            pytest.mark.shm,
            pytest.mark.skipif(not shm_available(), reason="/dev/shm is not a writable directory"),
        ],
    ),
]


def assert_close(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=REL_TOLERANCE, abs_tol=1e-12), key


@pytest.mark.parametrize("knobs", ENGINES)
def test_cached_presets_convert_once_per_process_and_match_run_local(knobs, kind, tmp_path):
    """Tiles, pruned rows and broadcast rows: at most one conversion per process per run.

    Each run is one job, so a pid logged twice in one run is a second
    conversion in one job.  The
    pool is forked inside the test, so its workers run the realisation
    under test.
    """
    counting, comp, data = kind
    log = tmp_path / "conversions"
    runs = [
        (BlockScheme(V, 3), {}),  # Triangle + Cross tiles
        (BlockScheme(V, 3), {"threshold": 0.2, "pruning": "sketch"}),  # rows
        (BroadcastScheme(V, 4), {}),  # a view of every participant, rows
    ]
    if not knobs:
        runs.append((DesignScheme(V), {}))  # Triangle tiles only
    engine = MultiprocessEngine(**knobs) if knobs else SerialEngine()
    with engine:
        for scheme, objective in runs:
            log.write_text("")
            computation = PairwiseComputation(
                scheme, comp, engine=engine, kernel=counting(log), **objective
            )
            got = computation.run_cached(data).pairs()
            want = PairwiseComputation(scheme, comp, **objective).run_local(data).pairs()
            assert_close(got, want)
            conversions = Counter(log.read_text().split())
            assert conversions and max(conversions.values()) == 1, (scheme, conversions)
            if knobs:  # converted in the workers, never in the driver
                assert str(os.getpid()) not in conversions
            else:
                assert conversions == {str(os.getpid()): 1}


def test_root_pickles_as_its_dict():
    """No ids, no forms, no conversion on the wire: the dict plus one class reference."""
    payloads = dict(enumerate(documents(), 1))
    root = WorkingSetStore(payloads=payloads)
    calls = []

    def convert(vectors):
        calls.append(len(vectors))
        return CsrCosineKernel.to_matrix(vectors)

    root.form(convert)
    root.view(np.array([2, 5, 9])).form(convert)  # a view reads the root's form
    assert calls == [V]
    plain = pickle.dumps({"dataset": payloads}, protocol=pickle.HIGHEST_PROTOCOL)
    stored = pickle.dumps({"dataset": root}, protocol=pickle.HIGHEST_PROTOCOL)
    class_reference = len(pickle.dumps(WorkingSetStore(), protocol=pickle.HIGHEST_PROTOCOL)) - len(
        pickle.dumps({}, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert 0 < len(stored) - len(plain) <= class_reference
    loaded = pickle.loads(stored)["dataset"]
    assert type(loaded) is WorkingSetStore and loaded == payloads
    loaded.form(convert)  # the copy converts for itself
    assert calls == [V, V]
    assert loaded.ids.tolist() == sorted(payloads)


def test_view_reads_the_roots_rows():
    data = rows()
    root = WorkingSetStore(payloads={eid: data[eid - 1] for eid in (7, 3, 12, 5)})  # not id order
    view = root.view(np.array([5, 12]))
    assert view.root is root and root.root is root
    assert dict(view) == {5: data[4], 12: data[11]} and view.ids.tolist() == [5, 12]
    matrix = view.form(stack_rows)
    assert matrix is root.form(stack_rows) and not matrix.flags.writeable
    assert np.array_equal(matrix[view.rows(view.ids)], np.stack([data[4], data[11]]))
