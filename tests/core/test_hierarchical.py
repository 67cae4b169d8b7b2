"""Hierarchical schedule tests (§7 extensions)."""

import numpy as np
import pytest

from repro.apps.dbscan import euclidean_distance
from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.element import ordered_results, results_matrix
from repro.core.hierarchical import (
    HierarchicalBlockScheme,
    Round,
    SequentialDesignSchedule,
    check_schedule_exactly_once,
    hierarchical_block_limits,
    hierarchical_max_dataset_bytes,
    run_rounds,
)
from repro.core.pairwise import (
    PairwiseComputation,
    brute_force_asymmetric,
    brute_force_results,
)
from repro.core.scheme import DistributionScheme
from repro.core.validate import check_exactly_once
from repro.mapreduce import MultiprocessEngine, SerialEngine
from repro.mapreduce.controlplane.events import ReplicationMeasured
from repro._util import GB, MB, TB

from ..conftest import abs_diff


def signed_diff(a, b):
    """Order-sensitive pair function (module level: the pool pickles it)."""
    return a - b


class TestHierarchicalBlock:
    def test_round_count(self):
        assert HierarchicalBlockScheme(40, 4, 2).num_rounds == 10

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            HierarchicalBlockScheme(10, 0, 2)
        with pytest.raises(ValueError):
            HierarchicalBlockScheme(10, 11, 2)
        with pytest.raises(ValueError):
            HierarchicalBlockScheme(10, 2, 0)

    @pytest.mark.parametrize("v,H,f", [(23, 3, 2), (30, 5, 3), (9, 3, 3), (2, 1, 1)])
    def test_exactly_once(self, v, H, f):
        ok, msg = check_schedule_exactly_once(HierarchicalBlockScheme(v, H, f))
        assert ok, msg

    def test_every_round_is_a_scheme_over_its_coarse_block(self):
        """One interface: a round passes the flat schemes' validator on its own universe."""
        schedule = HierarchicalBlockScheme(23, 3, 2)
        declared = 0
        for round_ in schedule.rounds():
            assert isinstance(round_, DistributionScheme) and round_.v == 23
            report = check_exactly_once(round_)
            assert report.ok, report
            assert report.total_pairs_expected == round_.evaluations
            assert set(round_.participants()) == {e for t in round_.tasks for e in t.members}
            declared += len(round_.required_pairs())
        assert declared == 23 * 22 // 2

    def test_round_missing_a_required_pair_fails_the_one_validator(self):
        whole = next(HierarchicalBlockScheme(20, 2, 2).rounds())
        first, *rest = whole.tasks
        dropped = first.pairs[0]
        short = type(first)(first.round_index, first.task_index, first.members, first.pairs[1:])
        report = check_exactly_once(Round(20, whole.index, [short, *rest], whole.blocks))
        assert report.ok is False
        assert report.missing == (dropped,)
        assert report.total_pairs_seen == report.total_pairs_expected - 1

    def test_overlapping_round_universes_fail_the_schedule_check(self):
        class Twice(HierarchicalBlockScheme):
            def rounds(self):
                yield from super().rounds()
                yield next(super().rounds())

        ok, msg = check_schedule_exactly_once(Twice(12, 2, 2))
        assert not ok and "inside the triangle" in msg

    def test_peak_replicas_below_flat(self):
        """The whole point of §7: per-round replicas ≪ total replicas."""
        schedule = HierarchicalBlockScheme(60, 5, 2)
        total = sum(r.replicas for r in schedule.rounds())
        assert schedule.peak_round_replicas() < total / 3

    def test_working_set_is_fine_grained(self):
        schedule = HierarchicalBlockScheme(64, 4, 4)
        # Coarse group has 16 elements, fine chunks 4 → tasks hold ≤ 8.
        assert schedule.max_working_set() <= 8

    def test_total_evaluations(self):
        schedule = HierarchicalBlockScheme(30, 3, 2)
        assert schedule.total_evaluations() == 30 * 29 // 2


class TestSequentialDesign:
    def test_round_partitioning(self):
        design = DesignScheme(23)
        schedule = SequentialDesignSchedule(design, 4)
        task_total = sum(len(r.tasks) for r in schedule.rounds())
        assert task_total == design.num_tasks

    def test_rounds_clamped_to_tasks(self):
        design = DesignScheme(7)  # 7 tasks
        schedule = SequentialDesignSchedule(design, 100)
        assert schedule.num_rounds == 7

    def test_peak_replicas_scales_inversely(self):
        design = DesignScheme(57)
        flat = SequentialDesignSchedule(design, 1).peak_round_replicas()
        split = SequentialDesignSchedule(design, 8).peak_round_replicas()
        assert split <= flat / 4  # ≈ flat/8, generous margin

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            SequentialDesignSchedule(DesignScheme(7), 0)


class TestRunRounds:
    @pytest.mark.parametrize(
        "schedule_factory",
        [
            lambda: HierarchicalBlockScheme(23, 3, 2),
            lambda: HierarchicalBlockScheme(23, 4, 4),
            lambda: SequentialDesignSchedule(DesignScheme(23), 5),
        ],
    )
    def test_matches_brute_force(self, small_dataset, schedule_factory):
        out = run_rounds(small_dataset, abs_diff, schedule_factory())
        assert results_matrix(out) == brute_force_results(small_dataset, abs_diff)

    def test_accepts_elements(self, small_dataset):
        from repro.core.element import Element

        elements = [Element(i + 1, p) for i, p in enumerate(small_dataset)]
        out = run_rounds(elements, abs_diff, HierarchicalBlockScheme(23, 2, 2))
        assert results_matrix(out) == brute_force_results(small_dataset, abs_diff)

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError):
            run_rounds([1.0], abs_diff, HierarchicalBlockScheme(23, 2, 2))


class TestRunRoundsMR:
    """§7 rounds executed as real two-MR-job runs per round (``engine=``)."""

    @pytest.mark.parametrize(
        "schedule_factory",
        [
            lambda: HierarchicalBlockScheme(23, 3, 2),
            lambda: HierarchicalBlockScheme(23, 5, 3),
            lambda: SequentialDesignSchedule(DesignScheme(23), 4),
        ],
    )
    def test_matches_brute_force(self, small_dataset, schedule_factory):
        out = run_rounds(small_dataset, abs_diff, schedule_factory(), engine=SerialEngine())
        assert results_matrix(out) == brute_force_results(small_dataset, abs_diff)

    def test_matches_in_process_rounds(self, small_dataset):
        schedule = HierarchicalBlockScheme(23, 4, 2)
        mr = run_rounds(small_dataset, abs_diff, schedule, engine=SerialEngine())
        local = run_rounds(small_dataset, abs_diff, schedule)
        assert results_matrix(mr) == results_matrix(local)

    def test_multiprocess_engine(self, small_dataset):
        with MultiprocessEngine(2) as pool:
            for schedule in (
                HierarchicalBlockScheme(23, 3, 2),
                SequentialDesignSchedule(DesignScheme(23), 4),
            ):
                out = run_rounds(small_dataset, abs_diff, schedule, engine=pool)
                assert results_matrix(out) == brute_force_results(small_dataset, abs_diff)

    def test_cardinality_check(self):
        with pytest.raises(ValueError):
            run_rounds(
                [1.0], abs_diff, HierarchicalBlockScheme(23, 2, 2), engine=SerialEngine()
            )

    def test_rounds_with_nothing_to_evaluate_run_no_jobs(self, small_dataset):
        """H = v: every diagonal round holds one element and no pair."""
        engine, data = SerialEngine(), small_dataset[:6]
        events = []
        engine.events.subscribe(events.append)
        out = run_rounds(data, abs_diff, HierarchicalBlockScheme(6, 6, 1), engine=engine)
        assert results_matrix(out) == brute_force_results(data, abs_diff)
        # One metered pipeline per cross round: 15 of the 21 rounds.
        assert sum(isinstance(event, ReplicationMeasured) for event in events) == 15


class TestRoundsTakeTheComputationsOptions:
    """What a flat run can be asked, a schedule can: the rounds are the same class."""

    SCHEDULES = [
        lambda: HierarchicalBlockScheme(23, 3, 2),
        lambda: SequentialDesignSchedule(DesignScheme(23), 4),
    ]

    POINTS = [tuple(p) for p in np.random.default_rng(3).random((23, 2)).tolist()]

    @pytest.fixture(scope="class")
    def engines(self):
        with MultiprocessEngine(2) as pool:
            yield {"local": None, "serial": SerialEngine(), "pool": pool}

    @pytest.mark.parametrize("engine", ["local", "serial", "pool"])
    @pytest.mark.parametrize("schedule_factory", SCHEDULES)
    def test_asymmetric_matches_brute_force(
        self, small_dataset, schedule_factory, engine, engines
    ):
        out = run_rounds(
            small_dataset, signed_diff, schedule_factory(),
            engine=engines[engine], symmetric=False,
        )
        assert ordered_results(out) == brute_force_asymmetric(small_dataset, signed_diff)

    @pytest.mark.parametrize("engine", ["local", "serial", "pool"])
    @pytest.mark.parametrize("schedule_factory", SCHEDULES)
    @pytest.mark.parametrize(
        "objective",
        [
            {"threshold": 0.4},
            {"threshold": 0.4, "pruning": "sketch"},
            {"top_k": 3},
        ],
        ids=["threshold", "threshold-sketch", "top_k"],
    )
    def test_objectives_equal_the_flat_reference(
        self, schedule_factory, objective, engine, engines
    ):
        flat = PairwiseComputation(BlockScheme(23, 4), euclidean_distance, **objective)
        out = run_rounds(
            self.POINTS, euclidean_distance, schedule_factory(),
            engine=engines[engine], **objective,
        )
        want = flat.run_local(self.POINTS)
        assert {eid: e.results for eid, e in out.items()} == {
            eid: e.results for eid, e in want.items()
        }

    def test_top_k_sketch_pruning_is_refused_in_one_place(self, engines):
        """Taus are indexed by dense id: refuse rather than prune a round wrongly."""
        with pytest.raises(NotImplementedError, match="top-k sketch pruning"):
            run_rounds(
                self.POINTS, euclidean_distance, HierarchicalBlockScheme(23, 3, 2),
                engine=engines["serial"], top_k=3, pruning="sketch",
            )


class TestLimitModel:
    def test_limits_shrink_with_coarse_factor(self):
        small = hierarchical_block_limits(10_000, 2, 5, 500_000)
        large = hierarchical_block_limits(10_000, 20, 5, 500_000)
        assert large["working_set_bytes"] < small["working_set_bytes"]
        assert large["round_intermediate_bytes"] < small["round_intermediate_bytes"]

    def test_max_dataset_scales_with_h(self):
        flat = hierarchical_max_dataset_bytes(200 * MB, 1 * TB, 1)
        assert flat == pytest.approx(10 * GB)
        assert hierarchical_max_dataset_bytes(200 * MB, 1 * TB, 8) == pytest.approx(
            40 * GB
        )

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            hierarchical_max_dataset_bytes(1, 1, 0)
