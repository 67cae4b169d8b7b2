"""Hierarchical schedule tests (§7 extensions)."""

import numpy as np
import pytest

from repro.apps.dbscan import euclidean_distance
from repro.core.bipartite import (
    BipartiteBlockScheme,
    BipartiteBroadcastScheme,
    brute_force_bipartite,
    run_bipartite,
)
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
from repro.core.scheme import DistributionScheme, Rows, Triangle, tile_rows
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

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda: HierarchicalBlockScheme(23, 3, 2),
            lambda: HierarchicalBlockScheme(30, 5, 3),
            lambda: HierarchicalBlockScheme(9, 3, 3),
            lambda: SequentialDesignSchedule(DesignScheme(23), 5),
        ],
        ids=["block-23-3-2", "block-30-5-3", "block-9-3-3", "design-23-5"],
    )
    def test_a_rounds_pair_count_is_its_required_set_size(self, schedule):
        """The universe's tile sizes count the set the groups stand for; the report reads them."""
        for round_ in schedule().rounds():
            tiles = round_.required_tiles()
            # The (high, low) groups each tile is made of, read as a set of pairs.
            groups = [(t.points, t.points) if isinstance(t, Triangle) else t for t in tiles]
            required = len({(i, j) for high, low in groups for i in high for j in low if i > j})
            assert sum(tile.size() for tile in tiles) == required == round_.evaluations
            capacity = max(2, round_.metrics().working_set_elements)
            assert round_.replication_report().replication_lower_bound == (
                2 * required / ((capacity - 1) * round_.v)
            )

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
            declared += sum(tile.size() for tile in round_.required_tiles())
        assert declared == 23 * 22 // 2

    def test_round_missing_a_required_pair_fails_the_one_validator(self):
        whole = next(HierarchicalBlockScheme(20, 2, 2).rounds())
        first, *rest = whole.tasks
        rows = tile_rows(first.tiles)
        dropped = tuple(rows[0].tolist())
        short = type(first)(first.round_index, first.task_index, first.members, (Rows(rows[1:]),))
        report = check_exactly_once(Round(20, whole.index, [short, *rest], whole.universe))
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

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_a_round_rejects_task_ids_out_of_range(self, where):
        """Like every scheme: ``-1`` is not the last task, ``num_tasks`` not an ``IndexError``."""
        round_ = next(HierarchicalBlockScheme(40, 4, 2).rounds())
        task = -1 if where == "before" else round_.num_tasks
        for ask in (round_.get_pairs, round_.subset_members, round_.task_profile):
            with pytest.raises(ValueError, match="out of range"):
                ask(task)


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
    """With no engine a schedule runs on the serial one (``TestNoEngineRunsTheExecutor``)."""

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
        local = PairwiseComputation(BlockScheme(23, 4), abs_diff).run_local(small_dataset)
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
        # no engine is the serial one (TestNoEngineRunsTheExecutor)
        with MultiprocessEngine(2) as pool:
            yield {"serial": SerialEngine(), "pool": pool}

    @pytest.mark.parametrize("engine", ["serial", "pool"])
    @pytest.mark.parametrize("schedule_factory", SCHEDULES)
    def test_asymmetric_matches_brute_force(
        self, small_dataset, schedule_factory, engine, engines
    ):
        out = run_rounds(
            small_dataset, signed_diff, schedule_factory(),
            engine=engines[engine], symmetric=False,
        )
        assert ordered_results(out) == brute_force_asymmetric(small_dataset, signed_diff)

    @pytest.mark.parametrize("engine", ["serial", "pool"])
    @pytest.mark.parametrize("schedule_factory", SCHEDULES)
    @pytest.mark.parametrize(
        "objective",
        [
            {"threshold": 0.4},
            {"threshold": 0.4, "pruning": "sketch"},
            {"top_k": 3},
            {"top_k": 3, "pruning": "sketch"},
        ],
        ids=["threshold", "threshold-sketch", "top_k", "top_k-sketch"],
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


class TestNoEngineRunsTheExecutor:
    """With no engine a schedule or a rectangle runs on the serial one, never the reference."""

    POINTS = [np.asarray(p) for p in np.random.default_rng(3).random((23, 2))]

    @pytest.fixture(autouse=True)
    def no_reference(self, monkeypatch):
        def refuse(self, dataset):
            raise AssertionError("an entry point fell back to run_local")

        monkeypatch.setattr(PairwiseComputation, "run_local", refuse)

    def test_a_schedule_prunes_per_round_and_reaches_the_kernel(self, monkeypatch):
        from repro.kernels.dense import DenseEuclideanKernel

        sketched, tiles = [], []
        attach = PairwiseComputation._attach_pruning
        evaluate_tile = DenseEuclideanKernel.evaluate_tile

        def watched(self, compute, payloads):
            sketched.append(len(payloads))
            return attach(self, compute, payloads)

        def spy(self, left, right):
            tiles.append((len(left), len(right)))
            return evaluate_tile(self, left, right)

        monkeypatch.setattr(PairwiseComputation, "_attach_pruning", watched)
        monkeypatch.setattr(DenseEuclideanKernel, "evaluate_tile", spy)
        schedule = HierarchicalBlockScheme(23, 3, 2)
        want = brute_force_results(self.POINTS, euclidean_distance)

        pruned = run_rounds(
            self.POINTS, euclidean_distance, schedule, threshold=0.4, pruning="sketch"
        )
        # One suite per round, over that round's participants only.
        assert len(sketched) == schedule.num_rounds and max(sketched) < 23
        assert results_matrix(pruned) == {pair: d for pair, d in want.items() if d < 0.4}

        assert not tiles
        vectorised = run_rounds(self.POINTS, euclidean_distance, schedule, kernel="auto")
        # Every task's tile was one product of the vectorised kernel.
        assert len(tiles) == sum(round_.num_tasks for round_ in schedule.rounds())
        got = results_matrix(vectorised)
        assert got.keys() == want.keys()
        assert list(got.values()) == pytest.approx([want[pair] for pair in got], rel=1e-9)

    def test_a_rectangle_runs_the_pipeline(self):
        r, s = [1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0]
        want = brute_force_bipartite(r, s, signed_diff)
        for scheme in (BipartiteBroadcastScheme(5, 3, 4), BipartiteBlockScheme(5, 3, 2, 2)):
            assert run_bipartite(r, s, signed_diff, scheme) == want


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
