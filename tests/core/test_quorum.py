"""Quorum scheme tests: exactly-once coverage, skew-aware packing, metering.

The quorum scheme's correctness argument is canonical per-difference-class
pair ownership (module docstring of ``repro.core.quorum``); these tests
check it exhaustively for every v the scheme claims to support, plus the
skew-aware permutation's invariance, the replication lower-bound report,
engine parity against broadcast, and the chooser crossover.
"""

import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import GB, MB
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.chooser import choose_scheme
from repro.core.design import DesignScheme
from repro.core.element import results_matrix
from repro.core.pairwise import PairwiseComputation, brute_force_results
from repro.core.quorum import QuorumScheme, measure_task_bytes
from repro.core.runner import auto_pairwise
from repro.core.scheme import Triangle, tile_rows
from repro.core.validate import balance_report, check_exactly_once, pair_keys
from repro.designs.difference_covers import difference_cover
from repro.mapreduce import MultiprocessEngine, SerialEngine
from repro.mapreduce.runtime import shm_available
from repro.mapreduce.serialization import estimate_element_size


def closed_form_coverage_ok(scheme: QuorumScheme) -> bool:
    """Cheap full-coverage check: the tiles' pair keys, sorted, are the triangle's, each once."""
    tiles = [tile for t in range(scheme.num_tasks) for tile in scheme.pair_tiles(t, ())]
    keys = np.sort(pair_keys(tile_rows(tiles), scheme.v))
    return np.array_equal(keys, pair_keys(Triangle(range(1, scheme.v + 1)).rows(), scheme.v))


class TestExactlyOnce:
    @pytest.mark.parametrize("v", [3, 4, 7, 12, 20, 31, 57, 58])
    def test_full_checker_small(self, v):
        report = check_exactly_once(QuorumScheme(v))
        assert report.ok, report

    @given(v=st.integers(min_value=3, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_coverage_sampled(self, v):
        assert closed_form_coverage_ok(QuorumScheme(v))

    def test_closed_form_coverage_every_v_to_200(self):
        for v in range(3, 201):
            assert closed_form_coverage_ok(QuorumScheme(v)), v

    def test_pairs_lie_in_working_set(self):
        scheme = QuorumScheme(58)
        for t in range(scheme.num_tasks):
            members = set(scheme.subset_members(t))
            for i, j in scheme.get_pairs(t, ()):
                assert i in members and j in members
                assert i > j

    def test_perfect_and_greedy_paths(self):
        assert QuorumScheme(57).cover.kind == "perfect"
        assert QuorumScheme(58).cover.kind == "greedy"
        for v in (57, 58):
            report = check_exactly_once(QuorumScheme(v))
            assert report.ok, report

    def test_explicit_cover(self):
        scheme = QuorumScheme(7, cover=(0, 1, 3))
        assert scheme.cover.kind == "explicit"
        report = check_exactly_once(scheme)
        assert report.ok, report

    def test_bad_explicit_cover_rejected(self):
        with pytest.raises(ValueError):
            QuorumScheme(7, cover=(0, 1))

    def test_cover_v_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuorumScheme(58, cover=difference_cover(57))


class TestStructure:
    def test_map_reduce_views_agree(self):
        scheme = QuorumScheme(30)
        for eid in range(1, 31):
            for t in scheme.get_subsets(eid):
                assert eid in scheme.subset_members(t)
        for t in range(scheme.num_tasks):
            for eid in scheme.subset_members(t):
                assert t in scheme.get_subsets(eid)

    def test_balanced_evaluations(self):
        # Every task evaluates ⌊(v−1)/2⌋ or ⌈(v−1)/2⌉ pairs.
        for v in (29, 30):
            scheme = QuorumScheme(v)
            counts = {len(scheme.get_pairs(t, ())) for t in range(v)}
            assert counts <= {(v - 1) // 2, v // 2}
            total = sum(len(scheme.get_pairs(t, ())) for t in range(v))
            assert total == v * (v - 1) // 2

    def test_task_profile_matches_reality(self):
        scheme = QuorumScheme(30)
        for t in range(scheme.num_tasks):
            profile = scheme.task_profile(t)
            assert profile.num_members == len(scheme.subset_members(t))
            assert profile.num_evaluations == len(scheme.get_pairs(t, ()))

    def test_metrics_row(self):
        scheme = QuorumScheme(58)
        m = scheme.metrics()
        k = scheme.cover.size
        assert m.num_tasks == 58
        assert m.replication_factor == float(k)
        assert m.working_set_elements == k
        assert m.communication_records == 2 * 58 * k
        assert scheme.replication_of(1) == k

    def test_pickles_without_its_tile_arrays_and_rebuilds_them(self):
        # the job's broadcast pickles the scheme; its per-task arrays stay out
        for scheme in (QuorumScheme(30), QuorumScheme(31, element_sizes=range(31, 0, -1))):
            state = scheme.__getstate__()
            assert not any(isinstance(value, np.ndarray) for value in state.values())
            copy = pickle.loads(pickle.dumps(scheme))
            for t in range(scheme.num_tasks):
                np.testing.assert_array_equal(copy.pair_array(t), scheme.pair_array(t))

    def test_numpy_integer_task_ids_read_the_same_tiles(self):
        # an even v's upper translates drop a class: picked by the id's half
        scheme = QuorumScheme(30)
        for t in np.arange(scheme.num_tasks):
            np.testing.assert_array_equal(scheme.pair_array(t), scheme.pair_array(int(t)))

    def test_replication_matches_balance_report(self):
        scheme = QuorumScheme(31)
        report = balance_report(scheme)
        assert report.replication_min == report.replication_max == scheme.cover.size


class TestReplicationReport:
    def test_perfect_cover_meets_bound_exactly(self):
        for v in (57, 73, 91, 133):
            report = QuorumScheme(v).replication_report()
            assert report.optimality_ratio == pytest.approx(1.0)

    def test_greedy_cover_within_modest_factor(self):
        # Ceilings sit ~2 % over the measured 1.263 / 1.529: a greedy
        # cover that grows by one quorum trips them.
        for v, ceiling in ((58, 1.288), (120, 1.56)):
            report = QuorumScheme(v).replication_report()
            assert 1.0 <= report.optimality_ratio <= ceiling, v

    def test_quorum_beats_padded_design_off_plane(self):
        quorum = QuorumScheme(58).replication_report()
        design = DesignScheme(58).replication_report()
        assert quorum.replication_achieved < design.replication_achieved

    def test_every_scheme_reports(self):
        for scheme in (
            BroadcastScheme(30, 4),
            BlockScheme(30, 5),
            DesignScheme(30),
            QuorumScheme(30),
        ):
            report = scheme.replication_report()
            assert report.replication_achieved > 0
            assert report.optimality_ratio >= 0.99  # achieved can't beat the bound
            assert "ratio" in report.summary()

    def test_skew_fields_only_with_sizes(self):
        plain = QuorumScheme(30).replication_report()
        assert plain.max_task_bytes is None and plain.bytes_skew is None
        sized = QuorumScheme(30, element_sizes=[1000] * 30).replication_report()
        assert sized.max_task_bytes == sized.mean_task_bytes
        assert sized.bytes_skew == pytest.approx(1.0)


class TestSkewAware:
    SIZES = [65536] * 4 + [1024] * 26  # 4 heavy + 26 light at v=30

    def test_coverage_invariant_under_packing(self):
        scheme = QuorumScheme(30, element_sizes=self.SIZES)
        report = check_exactly_once(scheme)
        assert report.ok, report

    def test_payload_bytes_in_profile(self):
        scheme = QuorumScheme(30, element_sizes=self.SIZES)
        for t in range(scheme.num_tasks):
            profile = scheme.task_profile(t)
            members = scheme.subset_members(t)
            assert profile.payload_bytes == sum(self.SIZES[e - 1] for e in members)
            assert profile.working_set_bytes(0) == profile.payload_bytes

    def test_packing_no_worse_than_identity(self):
        skewed = QuorumScheme(30, element_sizes=self.SIZES)
        identity = QuorumScheme(30)
        max_packed, _ = measure_task_bytes(skewed, self.SIZES)
        max_identity, _ = measure_task_bytes(identity, self.SIZES)
        assert max_packed <= max_identity

    def test_worst_task_30_percent_below_padded_design(self):
        # Off-plane v=58: six heavies meet pairwise in 58 quorums at <= 2
        # per task, while the padded design stacks >= 3 in one block.
        sizes = [65536] * 6 + [1024] * 52
        random.Random(17).shuffle(sizes)
        max_quorum, _ = measure_task_bytes(QuorumScheme(58, element_sizes=sizes), sizes)
        max_design, _ = measure_task_bytes(DesignScheme(58), sizes)
        assert max_quorum <= 0.7 * max_design

    def test_mapping_sizes_accepted(self):
        as_mapping = {eid: size for eid, size in enumerate(self.SIZES, start=1)}
        a = QuorumScheme(30, element_sizes=self.SIZES)
        b = QuorumScheme(30, element_sizes=as_mapping)
        assert a.subset_members(0) == b.subset_members(0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            QuorumScheme(30, element_sizes=[100] * 29)
        with pytest.raises(ValueError):
            QuorumScheme(30, element_sizes=[-1] + [100] * 29)

    def test_results_identical_to_plain_quorum(self):
        data = [float(i * 3 % 17) for i in range(30)]
        sizes = self.SIZES
        plain = PairwiseComputation(QuorumScheme(30), lambda a, b: a - b)
        skewed = PairwiseComputation(
            QuorumScheme(30, element_sizes=sizes), lambda a, b: a - b
        )
        assert results_matrix(plain.run(data)) == results_matrix(skewed.run(data))


V = 18
DATA = [float(i * i % 37) for i in range(V)]


def first_entry_gap(a, b):
    """Symmetric pair function over ndarray rows."""
    return abs(float(a[0] - b[0]))


def abs_diff(a, b):
    return abs(a - b)


class TestEngineParity:
    def test_two_job_pipeline_bit_identical(self):
        serial = PairwiseComputation(
            QuorumScheme(V), abs_diff, engine=SerialEngine(), num_reduce_tasks=3
        )
        merged_serial, result_serial = serial.run(
            DATA, num_map_tasks=4, return_pipeline=True
        )
        with MultiprocessEngine(max_workers=2) as engine:
            pooled = PairwiseComputation(
                QuorumScheme(V), abs_diff, engine=engine, num_reduce_tasks=3
            )
            merged_pooled, result_pooled = pooled.run(
                DATA, num_map_tasks=4, return_pipeline=True
            )
        assert len(result_serial.stages) == len(result_pooled.stages)
        for s_stage, p_stage in zip(result_serial.stages, result_pooled.stages):
            assert s_stage.records == p_stage.records
            assert s_stage.counters.as_dict() == p_stage.counters.as_dict()
        assert results_matrix(merged_serial) == results_matrix(merged_pooled)
        assert results_matrix(merged_serial) == brute_force_results(DATA, abs_diff)

    def test_quorum_matches_broadcast_results(self):
        quorum = PairwiseComputation(QuorumScheme(V), abs_diff)
        broadcast = PairwiseComputation(BroadcastScheme(V, 4), abs_diff)
        assert results_matrix(quorum.run(DATA)) == results_matrix(broadcast.run(DATA))
        assert results_matrix(quorum.run_cached(DATA)) == results_matrix(
            broadcast.run_cached(DATA)
        )

    @pytest.mark.shm
    @pytest.mark.skipif(not shm_available(), reason="/dev/shm is not a writable directory")
    def test_shm_plane_parity(self):
        with MultiprocessEngine(max_workers=2, data_plane="shm") as engine:
            pooled = PairwiseComputation(QuorumScheme(V), abs_diff, engine=engine)
            merged = pooled.run_cached(DATA)
        serial = PairwiseComputation(QuorumScheme(V), abs_diff)
        assert results_matrix(merged) == results_matrix(serial.run_cached(DATA))


class TestMetering:
    def test_engine_stats_populated(self):
        data = [float(i * 5 % 23) for i in range(30)]
        with MultiprocessEngine(max_workers=2) as engine:
            pc = PairwiseComputation(QuorumScheme(30), abs_diff, engine=engine)
            pc.run(data)
            stats = engine.stats
        k = difference_cover(30).size
        assert stats.replication_factor_achieved == pytest.approx(float(k))
        assert stats.replication_lower_bound == pytest.approx(29 / (k - 1))
        assert stats.shuffle_bytes_vs_bound > 0

    def test_trace_has_replication_event(self, tmp_path):
        from repro.mapreduce.controlplane import JsonlTraceSink

        path = tmp_path / "trace.jsonl"
        with MultiprocessEngine(max_workers=2, trace_sink=JsonlTraceSink(path)) as eng:
            PairwiseComputation(QuorumScheme(V), abs_diff, engine=eng).run(DATA)
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip().startswith("{")
        ]
        measured = [e for e in events if e.get("type") == "ReplicationMeasured"]
        assert len(measured) == 1
        event = measured[0]
        assert event["scheme"] == "quorum"
        assert event["v"] == V
        assert event["replication_achieved"] >= event["replication_lower_bound"]

    @pytest.mark.parametrize("needs_payload", [False, True])
    def test_byte_floor_prices_the_legs_that_carry_payloads(self, needs_payload):
        """The floor prices every leg that carries payloads at ``r·v·s``.

        v = 13 is a perfect difference set (achieved == bound).  With a
        payload-free leg 2 the floor is one leg of replicas, not two — priced
        per job it would read ≈ 0.5 — and leg 1 never beats it.  With
        payloads on leg 2 the run reads below the floor, by design: the one
        compute task ships one result block, and pickle writes each of the
        13 payloads into it once, not once per membership (r = 4), so leg 2
        costs about ``v·s`` where the floor prices ``r·v·s``.
        """
        from repro.core.aggregate import ConcatAggregator
        from repro.mapreduce.controlplane.events import ReplicationMeasured

        aggregator = ConcatAggregator()
        aggregator.needs_payload = needs_payload
        rows = [np.full(512, float(i)) for i in range(13)]
        engine = SerialEngine()
        measured = []
        engine.events.subscribe(
            lambda event: isinstance(event, ReplicationMeasured) and measured.append(event)
        )
        PairwiseComputation(
            QuorumScheme(13), first_entry_gap, engine=engine, aggregator=aggregator
        ).run(rows)
        (event,) = measured
        assert event.optimality_ratio == pytest.approx(1.0)
        legs = 2 if needs_payload else 1
        assert event.shuffle_bytes_floor == legs * 4 * 13 * estimate_element_size(rows)
        if needs_payload:
            assert event.shuffle_bytes == 220_168 + 55_564  # leg 1 + leg 2
            assert event.shuffle_bytes_vs_bound == pytest.approx(0.6277, abs=1e-4)
        else:
            assert 1.0 <= event.shuffle_bytes_vs_bound < 1.2

    def test_serial_engine_safe_no_stats(self):
        # SerialEngine has no .stats; the meter must not crash.
        pc = PairwiseComputation(QuorumScheme(V), abs_diff, engine=SerialEngine())
        merged = pc.run(DATA)
        assert results_matrix(merged) == brute_force_results(DATA, abs_diff)


class TestChooserCrossover:
    """The √v step builds the GF plane and the cover's quorum; lowest replication wins."""

    # v = 35: no plane of order 6; block needs vs <= sqrt(8 MB · 300 MB / 2) ≈ 34.6 MB.
    OFF_PLANE = dict(maxws=8 * MB, maxis=300 * MB)

    def test_quorum_chosen_off_plane_when_block_infeasible(self):
        choice = choose_scheme(35, 1 * MB, **self.OFF_PLANE)
        assert isinstance(choice.scheme, QuorumScheme)
        assert "quorum: lowest replication" in choice.explain()

    def test_design_kept_on_exact_plane(self):
        # v=57 is the q=7 plane: the perfect cover ties it (8 and 8), design wins the tie.
        choice = choose_scheme(57, 1 * MB, maxws=10 * MB, maxis=600 * MB)
        assert isinstance(choice.scheme, DesignScheme)
        assert choice.scheme.metrics().replication_factor == 8
        assert "quorum(v=57, |D|=8" in choice.explain()

    def test_design_kept_when_cover_not_competitive(self):
        # v=2500: both fit (54 MB and 70 MB working sets), the cover's |D|=70
        # replicates more than the q=53 plane's ≈ 53.
        choice = choose_scheme(2_500, 1 * MB, maxws=70 * MB, maxis=178 * GB)
        assert isinstance(choice.scheme, DesignScheme)
        assert any(
            line.startswith("quorum(v=2500, |D|=70") and line.endswith("fits")
            for line in choice.rationale
        )

    def test_quorum_replication_strictly_below_design(self):
        choice = choose_scheme(35, 1 * MB, **self.OFF_PLANE)
        assert (
            choice.scheme.metrics().replication_factor
            < DesignScheme(35, allow_prime_powers=True).metrics().replication_factor
        )


class TestRunnerForcedScheme:
    def test_forced_quorum_by_name(self):
        data = [float(i) for i in range(12)]
        merged, choice = auto_pairwise(data, abs_diff, scheme="quorum")
        assert isinstance(choice.scheme, QuorumScheme)
        assert "forced" in choice.explain()
        assert results_matrix(merged) == brute_force_results(data, abs_diff)

    def test_forced_instance(self):
        data = [float(i) for i in range(12)]
        scheme = QuorumScheme(12, element_sizes=[8] * 12)
        merged, choice = auto_pairwise(data, abs_diff, scheme=scheme)
        assert choice.scheme is scheme
        assert results_matrix(merged) == brute_force_results(data, abs_diff)

    def test_forced_instance_v_mismatch(self):
        with pytest.raises(ValueError):
            auto_pairwise([1.0, 2.0, 3.0], abs_diff, scheme=QuorumScheme(5))

    def test_forced_unknown_name(self):
        with pytest.raises(ValueError):
            auto_pairwise([1.0, 2.0, 3.0], abs_diff, scheme="zigzag")
