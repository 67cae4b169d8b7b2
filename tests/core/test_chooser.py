"""Scheme-chooser tests: the Fig 9b decision logic."""

import pytest

from repro._util import GB, KB, KIB, MB, TB, format_bytes
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.chooser import ROUTINGS, InfeasibleWorkloadError, choose_scheme
from repro.core.cost_model import block_h_bounds
from repro.core.design import DesignScheme
from repro.core.hierarchical import HierarchicalBlockScheme
from repro.core.runner import _forced_choice

LIMITS = dict(maxws=200 * MB, maxis=1 * TB)


class TestDecisions:
    def test_small_dataset_broadcast(self):
        choice = choose_scheme(1000, 50 * KB, **LIMITS)
        assert isinstance(choice.scheme, BroadcastScheme)
        assert not choice.is_hierarchical

    def test_medium_dataset_block(self):
        choice = choose_scheme(50_000, 100 * KB, **LIMITS)
        assert isinstance(choice.scheme, BlockScheme)
        bounds = block_h_bounds(50_000 * 100 * KB, **LIMITS)
        assert bounds.h_min <= choice.scheme.h_requested <= bounds.h_max

    def test_huge_dataset_hierarchical(self):
        choice = choose_scheme(5_000, 10 * MB, **LIMITS)
        assert isinstance(choice.scheme, HierarchicalBlockScheme)
        assert choice.is_hierarchical

    def test_design_when_block_infeasible(self):
        # vs = 2500 × 1 MB = 2.5 GB; block needs vs ≤ sqrt(maxws·maxis/2)
        # = sqrt(50 MB · 200 GB / 2) ≈ 2.24 GB → infeasible.  Design:
        # storage v^{3/2}·s = 125 GB ≤ 200 GB and ws √v·s = 50 MB ≤ maxws.
        choice = choose_scheme(
            2_500, 1 * MB, maxws=50 * MB, maxis=200 * GB, num_nodes=8
        )
        assert isinstance(choice.scheme, DesignScheme)

    def test_chosen_scheme_respects_limits(self):
        """Whatever is chosen must actually fit the limits it was given."""
        for v, s in [(500, 100 * KB), (20_000, 200 * KB), (3_000, 2 * MB)]:
            choice = choose_scheme(v, s, **LIMITS)
            if isinstance(choice.scheme, HierarchicalBlockScheme):
                assert choice.scheme.max_working_set() * s <= LIMITS["maxws"]
            elif isinstance(choice.scheme, DesignScheme):
                m = choice.scheme.metrics()
                assert m.working_set_bytes(s) <= LIMITS["maxws"]
                assert m.intermediate_bytes(s) <= LIMITS["maxis"] * 1.05
            else:
                m = choice.scheme.metrics()
                assert m.working_set_bytes(s) <= LIMITS["maxws"]
                assert m.intermediate_bytes(s) <= LIMITS["maxis"]

    def test_min_tasks_raises_parallelism(self):
        low = choose_scheme(2_000, 500 * KB, min_tasks=4, **LIMITS)
        high = choose_scheme(2_000, 500 * KB, min_tasks=300, **LIMITS)
        def tasks(choice):
            scheme = choice.scheme
            if isinstance(scheme, HierarchicalBlockScheme):
                return max(len(r.tasks) for r in scheme.rounds())
            return scheme.num_tasks
        assert tasks(high) >= 300 or isinstance(high.scheme, DesignScheme)
        assert tasks(low) >= 4

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleWorkloadError):
            # Each element alone exceeds a task slot: nothing can fit.
            choose_scheme(100, 10 * GB, maxws=1 * MB, maxis=1 * GB, max_rounds=50)

    def test_rationale_populated(self):
        choice = choose_scheme(50_000, 100 * KB, **LIMITS)
        text = choice.explain()
        assert "block" in text and "maxws" in text


class TestRouting:
    """Payload routing: one rule, applied to chosen and forced schemes alike."""

    @staticmethod
    def forced(v, scheme, element_size, *, maxws=200 * MB, num_nodes=8):
        return _forced_choice(
            v, scheme, element_size=element_size, maxws=maxws, num_nodes=num_nodes
        )

    def test_chosen_broadcast_runs_as_one_job(self):
        choice = choose_scheme(1000, 50 * KB, **LIMITS)
        assert isinstance(choice.scheme, BroadcastScheme)
        assert choice.routing == "one-job"

    def test_replication_above_node_count_rides_the_cache(self):
        # 273 x 128 KiB under the perfect-difference-set quorum: 17 replicas
        # of every element vs 8 store localisations.
        choice = self.forced(273, "quorum", 128 * KIB)
        assert choice.scheme.metrics().replication_factor == 17
        assert choice.routing == "cache"

    def test_replication_below_node_count_rides_the_shuffle(self):
        choice = self.forced(300, BlockScheme(300, 3), 10 * KB)
        assert choice.routing == "shuffle"

    @pytest.mark.parametrize("scheme", ["broadcast", "quorum", "design", "block"])
    def test_store_beyond_a_task_slot_always_shuffles(self, scheme):
        choice = self.forced(273, scheme, 1 * MB)  # v·s = 273 MB > maxws
        assert choice.routing == "shuffle"
        assert "> maxws" in choice.rationale[-1]

    def test_hierarchical_is_not_routed(self):
        choice = choose_scheme(5_000, 10 * MB, **LIMITS)
        assert choice.is_hierarchical
        assert choice.routing == "shuffle"  # the default, untouched
        assert "routing" not in choice.explain()

    def test_rationale_names_route_and_both_byte_totals(self):
        store = 273 * 128 * KIB
        choice = self.forced(273, "quorum", 128 * KIB)
        line = choice.rationale[-1]
        assert line.startswith("routing: cache")
        # r·v·s through the shuffle, n·v·s via the cache
        assert f"shuffle {format_bytes(17 * store)}" in line
        assert f"cache {format_bytes(8 * store)}" in line
        assert choice.explain().endswith(line)

    def test_every_flat_choice_is_routed(self):
        for v, s in [(500, 100 * KB), (20_000, 200 * KB), (2_500, 1 * MB)]:
            choice = choose_scheme(v, s, **LIMITS)
            assert choice.routing in ROUTINGS
            assert choice.rationale[-1].startswith(f"routing: {choice.routing}")


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            choose_scheme(1, 100, **LIMITS)
        with pytest.raises(ValueError):
            choose_scheme(10, 0, **LIMITS)
        with pytest.raises(ValueError):
            choose_scheme(10, 100, maxws=0, maxis=1)
        with pytest.raises(ValueError):
            choose_scheme(10, 100, num_nodes=0, **LIMITS)

    def test_prime_power_passthrough(self):
        choice = choose_scheme(
            21, 1 * MB, maxws=6 * MB, maxis=100 * TB, allow_prime_powers=True
        )
        if isinstance(choice.scheme, DesignScheme):
            assert choice.scheme.q == 4
