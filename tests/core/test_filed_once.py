"""A once-filed run's :class:`PairResults` mirrors its columns when read.

Under a built-in :class:`ConcatAggregator` or :class:`ThresholdAggregator`
with ``symmetric=True`` the compute tasks key every result ``(max(i, j),
min(i, j))``, and the :class:`PairResults` the run returns is ``mirrored``:
it builds the other orientation when read.  Every view of such a run
equals ``run_local``'s — element lookups, ``len`` and iteration,
:meth:`PairResults.dense`, :meth:`PairResults.pairs` and
:func:`ordered_results` — on the scalar kernel and ``"auto"``, with one
element whose every result is NaN, and through ``run_rounds`` and
``run_bipartite``.  That a pair repeated in the other orientation is still
refused, and that leg 2 carries one entry per pair, is held in
``test_fold.py``.
"""

import random
import re

import numpy as np
import pytest

from repro.apps.covariance import row_inner_product
from repro.core.bipartite import BipartiteBlockScheme, brute_force_bipartite, run_bipartite
from repro.core.block import BlockScheme
from repro.core.element import PairResults, encode_block, ordered_results
from repro.core.hierarchical import HierarchicalBlockScheme, run_rounds
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce import MultiprocessEngine

V = 30
#: 0.1 keeps about half the pairs of the rows below, NaN ones never
THRESHOLD = 0.1


def rows(v=V, nan=7):
    """Rows of multiples of 1/64: every dot product is exact, so BLAS and the loop agree bitwise.

    Every result of element ``nan`` is NaN (``None``: none is).
    """
    rng = random.Random(1234)
    data = [np.array([rng.randrange(-64, 65) / 64 for _ in range(6)]) for _ in range(v)]
    if nan is not None:
        data[nan - 1][2] = np.nan
    return data


@pytest.fixture(scope="module")
def pool():
    with MultiprocessEngine(max_workers=2) as engine:
        yield engine


def nan_repr(mapping):
    """A mapping's items in key order, by ``repr``: NaN equals NaN."""
    return repr(sorted(mapping.items()))


def assert_same_views(got, want, payloads=None):
    assert got._mirrored
    assert len(got) == len(want) and sorted(got) == sorted(want) and len(set(got)) == len(got)
    for eid in want:
        assert nan_repr(got[eid].results) == nan_repr(want[eid].results)
        assert all(type(p) is int and type(r) is float for p, r in got[eid].results.items())
        if payloads is not None:
            assert got[eid].payload is payloads[eid - 1]
    assert nan_repr(got.pairs()) == nan_repr(want.pairs())
    assert nan_repr(ordered_results(got)) == nan_repr(ordered_results(want))
    assert np.array_equal(got.dense(), want.dense(), equal_nan=True)


@pytest.mark.parametrize("kernel", [None, "auto"])
@pytest.mark.parametrize("objective", [{}, {"threshold": THRESHOLD}], ids=["concat", "threshold"])
@pytest.mark.parametrize("path", ["run", "run_cached"])
def test_views_equal_run_local(path, objective, kernel):
    data = rows()
    computation = PairwiseComputation(
        BlockScheme(V, 3), row_inner_product, kernel=kernel, num_reduce_tasks=3, **objective
    )
    got = getattr(computation, path)(data)
    if objective:
        assert 0 < len(got.pairs()) < V * (V - 1) // 2  # the threshold kept some pairs, not all
    assert_same_views(got, computation.run_local(data), payloads=data)


@pytest.mark.parametrize("objective", [{}, {"threshold": THRESHOLD}], ids=["concat", "threshold"])
def test_views_equal_run_local_on_the_pool(objective, pool):
    data = rows()
    computation = PairwiseComputation(
        BlockScheme(V, 3), row_inner_product, kernel="auto", engine=pool, **objective
    )
    assert_same_views(computation.run(data), computation.run_local(data), payloads=data)


@pytest.mark.parametrize("objective", [{}, {"threshold": THRESHOLD}], ids=["concat", "threshold"])
def test_run_rounds_equals_the_flat_reference(objective):
    data = rows(23)
    out = run_rounds(data, row_inner_product, HierarchicalBlockScheme(23, 3, 2), **objective)
    want = PairwiseComputation(BlockScheme(23, 4), row_inner_product, **objective).run_local(data)
    assert len(out) == len(want)
    for eid in want:
        assert nan_repr(out[eid].results) == nan_repr(want[eid].results)
    assert np.array_equal(out.dense(), want.dense(), equal_nan=True)


@pytest.mark.parametrize("kernel", [None, "auto"])
def test_run_bipartite_equals_the_rectangle(kernel):
    r, s = rows(10, nan=4), rows(15, nan=None)
    scheme = BipartiteBlockScheme(10, 15, 2, 3)
    got = run_bipartite(r, s, row_inner_product, scheme)
    assert nan_repr(got) == nan_repr(brute_force_bipartite(r, s, row_inner_product))
    reference = PairwiseComputation(scheme, row_inner_product, kernel=kernel)
    merged = reference.run([*s, *r])
    assert_same_views(merged, reference.run_local([*s, *r]))


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize(
    "block, named",
    [
        (([2, 3], [1, 1], np.array([1, 9]), np.array([0.5, 0.25])), "(3, 9)"),
        (([2, 9], [1, 1], np.array([1, 2]), np.array([0.5, 0.25])), "(9, None)"),
    ],
    ids=["partner", "owner"],
)
def test_dense_names_an_out_of_range_key_either_way(block, named, mirrored):
    results = PairResults([encode_block(*block, 9)], v=4, mirrored=mirrored)
    message = f"pair key {named} out of range for v=4"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        results.dense()
