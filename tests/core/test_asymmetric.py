"""Non-symmetric evaluation tests (the §1 'marginal modification')."""

import pytest

from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.element import ordered_results, results_matrix
from repro.core.pairwise import (
    EVALUATIONS,
    PAIRWISE_GROUP,
    PairwiseComputation,
    brute_force_asymmetric,
)


def directed(a, b):
    """Order-sensitive pair function: who is first matters."""
    return a * 1000 + b


DATA = [float(x + 1) for x in range(17)]


class TestAsymmetricPipeline:
    @pytest.mark.parametrize(
        "scheme_factory",
        [
            lambda: BroadcastScheme(17, 4),
            lambda: BlockScheme(17, 3),
            lambda: BlockScheme(17, 4, pair_diagonals=True),
            lambda: DesignScheme(17),
        ],
    )
    def test_both_orientations_stored(self, scheme_factory):
        computation = PairwiseComputation(scheme_factory(), directed, symmetric=False)
        merged = computation.run(DATA)
        got = ordered_results(merged)
        assert got == brute_force_asymmetric(DATA, directed)

    def test_run_local_matches(self):
        computation = PairwiseComputation(BlockScheme(17, 3), directed, symmetric=False)
        local = ordered_results(computation.run_local(DATA))
        assert local == brute_force_asymmetric(DATA, directed)

    def test_broadcast_one_job_asymmetric(self):
        scheme = BroadcastScheme(17, 4)
        computation = PairwiseComputation(scheme, directed, symmetric=False)
        merged = computation.run_cached(DATA)
        assert ordered_results(merged) == brute_force_asymmetric(DATA, directed)

    def test_evaluation_count_doubles(self):
        sym = PairwiseComputation(BlockScheme(17, 3), directed)
        asym = PairwiseComputation(BlockScheme(17, 3), directed, symmetric=False)
        _m1, p1 = sym.run(DATA, return_pipeline=True)
        _m2, p2 = asym.run(DATA, return_pipeline=True)
        triangle = 17 * 16 // 2
        assert p1.counters.get(PAIRWISE_GROUP, EVALUATIONS) == triangle
        assert p2.counters.get(PAIRWISE_GROUP, EVALUATIONS) == 2 * triangle

    def test_symmetric_mode_unaffected(self):
        """symmetric=True (default) still stores one value per pair."""

        def sym_fn(a, b):
            return a + b

        computation = PairwiseComputation(DesignScheme(17), sym_fn)
        merged = computation.run(DATA)
        matrix = results_matrix(merged)  # symmetry check passes
        assert len(matrix) == 17 * 16 // 2


class TestOrderedResults:
    def test_orientation_preserved(self):
        from repro.core.element import Element

        a = Element(1)
        a.add_result(2, "one-two")
        b = Element(2)
        b.add_result(1, "two-one")
        got = ordered_results([a, b])
        assert got == {(1, 2): "one-two", (2, 1): "two-one"}

    def test_mapping_input(self):
        from repro.core.element import Element

        a = Element(1)
        a.add_result(2, 5)
        assert ordered_results({1: a}) == {(1, 2): 5}
