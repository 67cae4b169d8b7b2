"""Scheme-chooser tests: the Fig 9b decision logic."""

import pytest

from repro._util import GB, KB, KIB, MB, TB, format_bytes
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.chooser import ROUTINGS, InfeasibleWorkloadError, choose_scheme
from repro.core.cost_model import block_h_bounds
from repro.core.design import DesignScheme
from repro.core.hierarchical import HierarchicalBlockScheme
from repro.core.quorum import QuorumScheme
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
        # = sqrt(60 MB · 200 GB / 2) ≈ 2.45 GB → infeasible.  Design on the
        # q = 53 plane: lines of 54 elements (54 MB ≤ maxws), replication
        # ≈ 53 (≈ 133 GB ≤ maxis); the cover's 70 MB working set does not fit.
        choice = choose_scheme(
            2_500, 1 * MB, maxws=60 * MB, maxis=200 * GB, num_nodes=8
        )
        assert isinstance(choice.scheme, DesignScheme)

    def test_chosen_scheme_respects_limits(self):
        """Whatever is chosen must actually fit the limits it was given."""
        for v, s in [(500, 100 * KB), (20_000, 200 * KB), (3_000, 2 * MB)]:
            choice = choose_scheme(v, s, **LIMITS)
            if isinstance(choice.scheme, HierarchicalBlockScheme):
                assert choice.scheme.max_working_set() * s <= LIMITS["maxws"]
            else:
                assert choice.scheme.metrics().fits(s, **LIMITS)

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
        assert choice.routing == "cache"

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
        """The √v step builds the GF plane: v = 21 is the q = 4 plane, not a truncated q = 5."""
        choice = choose_scheme(21, 1 * MB, maxws=5 * MB, maxis=150 * MB)
        assert isinstance(choice.scheme, DesignScheme)
        assert choice.scheme.q == 4


def sqrt_v_limits(v, s=1 * MB):
    """Limits that send the chooser to the √v step with every √v scheme fitting.

    ``maxws`` is the largest working set of the GF plane, the prime plane and
    the cover; ``maxis`` is ``v·s`` times the largest replication, plus one.
    """
    rows = [
        DesignScheme(v, allow_prime_powers=True).metrics(),
        DesignScheme(v).metrics(),
        QuorumScheme(v).metrics(),
    ]
    return dict(
        maxws=max(m.working_set_elements for m in rows) * s,
        maxis=int(v * s * max(m.replication_factor for m in rows)) + 1,
    )


class TestTheSqrtVStep:
    """Design (GF plane) and quorum are built and judged by their own metrics()."""

    def test_the_returned_scheme_fits_at_v5000(self):
        # √5000 · 1 MB ≈ 70.7 MB fits 71 MB, but the q = 71 plane's lines
        # hold 72 elements: its own working set is 72 MB.
        maxws, maxis = 71 * MB, 500 * GB
        # The cover's |D| is 99 (99 MB): neither √v scheme fits, so the
        # chooser falls back to the hierarchical schedule.
        choice = choose_scheme(5_000, 1 * MB, maxws=maxws, maxis=maxis)
        assert choice.is_hierarchical
        assert choice.scheme.max_working_set() * MB <= maxws

    @pytest.mark.parametrize("v", [21, 35, 57, 70, 85, 120, 200, 570])
    def test_every_flat_pick_fits_its_own_metrics(self, v):
        limits = sqrt_v_limits(v)
        choice = choose_scheme(v, 1 * MB, **limits)
        assert any(line.startswith("block infeasible") for line in choice.rationale)
        assert choice.scheme.metrics().fits(1 * MB, **limits)

    @pytest.mark.parametrize(
        "v, kind, q, replication",
        [
            (35, QuorumScheme, None, 7),  # no plane of order 6: the cover wins
            (70, DesignScheme, 8, 9),  # the q = 8 GF plane (the cover replicates 11)
            (85, DesignScheme, 9, 10),  # the q = 9 GF plane (the prime plane: 11.95)
        ],
    )
    def test_lowest_replication_wins(self, v, kind, q, replication):
        choice = choose_scheme(v, 1 * MB, **sqrt_v_limits(v))
        assert type(choice.scheme) is kind
        assert getattr(choice.scheme, "q", None) == q
        assert choice.scheme.metrics().replication_factor == pytest.approx(replication, abs=0.01)
        assert f"{kind.name}: lowest replication" in choice.explain()

    def test_a_plane_that_cannot_fit_is_not_built(self, monkeypatch):
        import repro.core.chooser as chooser

        def refuse(*args, **kwargs):
            raise AssertionError("the plane was built")

        monkeypatch.setattr(chooser, "DesignScheme", refuse)
        choice = choose_scheme(5_000, 10 * MB, **LIMITS)  # q = 71 lines: >= 710 MB
        assert choice.is_hierarchical
        assert "design not built" in choice.explain()

    def test_a_plane_that_cannot_fit_maxis_is_not_built(self, monkeypatch):
        import repro.core.chooser as chooser

        def refuse(*args, **kwargs):
            raise AssertionError("the plane was built")

        monkeypatch.setattr(chooser, "DesignScheme", refuse)
        # The q = 149 plane's 150 MB lines fit maxws = 200 MB, but each point
        # replicates >= 19 999 / 149 times: >= 2.6 TB intermediate > 1 TB.
        choice = choose_scheme(20_000, 1 * MB, **LIMITS)
        assert "design not built" in choice.explain()
        assert "quorum not built" in choice.explain()
