"""Fused job chaining: the reduce→map short-circuit of run_chain.

When the next job's map phase is identity-shaped, the upstream reduce
tasks write the next job's spill files at source; the elided stage's
records never reach the driver and its data-plane counters are
synthesized from the manifest sums — bit-identical to the unfused values.
"""

import os

import pytest

from repro.core.design import DesignScheme
from repro.core.pairwise import PairwiseComputation
from repro.mapreduce.controlplane import TASK_ATTEMPTS
from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
)
from repro.mapreduce.faults import CrashFault, FaultPlan
from repro.mapreduce.job import Job, Mapper, Reducer, TaskFailedError, records_from
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runtime import MultiprocessEngine, SerialEngine
from repro.mapreduce.tasks import attempt_marker

from . import wordcount
from .wordcount import SumReducer, wordcount_job

LINES = wordcount.LINES * 6

DATA_PLANE_COUNTERS = [
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    SHUFFLE_RECORDS,
    SHUFFLE_BYTES,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
]


class MaxReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, max(values))


class IncrementMapper(Mapper):
    """Non-identity map over stage-1 (word, count) output."""

    def map(self, key, value, context):
        context.emit(key, value + 1)


class FailingReducer(Reducer):
    def reduce(self, key, values, context):
        raise RuntimeError("reducer always fails")


def fusable_chain(**second_overrides):
    """wordcount → identity-map re-aggregation: the fusable shape."""
    first = wordcount_job(name="count")
    settings = dict(name="rollup", reducer=MaxReducer, num_reducers=2)
    settings.update(second_overrides)
    return [first, Job(**settings)]


#: chain shape -> (job list factory, stage boundaries a direct pool fuses)
CHAINS = {
    "one-job": (lambda: fusable_chain()[:1], 0),
    "two-fusable": (fusable_chain, 1),
    "middle-mapper-not-identity": (
        lambda: fusable_chain(mapper=IncrementMapper)
        + [Job(name="rollup-2", reducer=MaxReducer, num_reducers=2)],
        1,
    ),
    "map-only-first": (
        lambda: [
            wordcount_job(name="split", reducer=None, num_reducers=0),
            Job(name="sum", reducer=SumReducer, num_reducers=2),
        ],
        0,
    ),
}

ENGINE_KINDS = ("serial", "direct", "relay", "journaled")


@pytest.fixture(scope="module", params=ENGINE_KINDS)
def engine(request, tmp_path_factory):
    """One engine per kind for the whole table: pools start once."""
    kind = request.param
    if kind == "serial":
        built = SerialEngine()
    elif kind == "journaled":
        built = MultiprocessEngine(
            max_workers=2, journal_dir=tmp_path_factory.mktemp("journal")
        )
    else:
        built = MultiprocessEngine(max_workers=2, shuffle_mode=kind)
    built.kind = kind
    with built:
        yield built


def fused_so_far(engine):
    return engine.stats.fused_stages if engine.kind != "serial" else 0


def leftovers(engine):
    """Job artifacts still in the engine's broadcast dir (serial has none)."""
    if engine.kind == "serial":
        return []
    root = engine._broadcast_dir()
    return sorted(
        path.name
        for pattern in ("*.pkl", "*.began", "*.released", "*-shuffle")
        for path in root.glob(pattern)
    )


def merged_counters(stages, *, drop_attempts):
    merged = PipelineResult(stages=stages).counters.as_dict()
    if drop_attempts:  # a fused boundary runs no map attempts for the next stage
        del merged[FRAMEWORK_GROUP][TASK_ATTEMPTS]
    return merged


class TestOneStageLoop:
    """Every engine × chain shape goes through the same loop, same answers."""

    @pytest.mark.parametrize("shape", sorted(CHAINS))
    def test_chain_matches_serial(self, engine, shape):
        make_chain, direct_fuses = CHAINS[shape]
        expect_fused = direct_fuses if engine.kind == "direct" else 0
        baseline = SerialEngine().run_chain(
            make_chain(), records_from(LINES), num_map_tasks=4
        )
        before = fused_so_far(engine)
        stages = engine.run_chain(make_chain(), records_from(LINES), num_map_tasks=4)
        assert fused_so_far(engine) - before == expect_fused
        assert stages[-1].records == baseline[-1].records
        assert [stage.records_elided for stage in stages].count(True) == expect_fused
        assert merged_counters(stages, drop_attempts=expect_fused) == merged_counters(
            baseline, drop_attempts=expect_fused
        )
        assert leftovers(engine) == []

    def test_run_is_the_one_stage_chain(self, engine):
        (job,) = CHAINS["one-job"][0]()
        single = engine.run(job, records_from(LINES), num_map_tasks=4)
        (staged,) = engine.run_chain([job], records_from(LINES), num_map_tasks=4)
        assert single.records == staged.records
        assert single.counters.as_dict() == staged.counters.as_dict()
        assert (single.num_map_tasks, single.num_reduce_tasks) == (4, 3)
        assert (staged.num_map_tasks, staged.num_reduce_tasks) == (4, 3)

    def test_an_empty_chain_is_refused(self, engine):
        with pytest.raises(ValueError, match="at least one job"):
            engine.run_chain([], records_from(LINES))

    @pytest.mark.parametrize("fuse", [True, False])
    def test_failing_stage_is_named_and_nothing_leaks(self, engine, fuse):
        chain = fusable_chain(reducer=FailingReducer, num_reducers=3)
        before = fused_so_far(engine)
        with pytest.raises(TaskFailedError) as info:
            engine.run_chain(chain, records_from(LINES), num_map_tasks=4, fuse=fuse)
        assert info.value.stage_index == 1
        assert info.value.job_name == "rollup"
        # The boundary fused before stage 1's reducers died, where it can.
        fused = engine.kind == "direct" and fuse
        assert fused_so_far(engine) - before == int(fused)
        assert leftovers(engine) == []


def test_a_straggler_touching_its_marker_during_release_leaves_nothing(monkeypatch):
    """A worker that outlives its job touches its attempt-began marker while
    the driver removes the job's marker directory — after the directory was
    emptied, before it is unlinked.  The directory must still go."""
    with MultiprocessEngine(max_workers=1) as engine:
        handle = engine._job_handle(Job(name="straggler", reducer=SumReducer))
        straggler = attempt_marker(handle, "map", 0)
        real_rmdir = os.rmdir

        def rmdir_racing_the_straggler(path, *args, **kwargs):
            straggler(2)
            return real_rmdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "rmdir", rmdir_racing_the_straggler)
        engine._release_job(handle)
        monkeypatch.undo()
        assert sorted(path.name for path in engine._broadcast_dir().iterdir()) == []


class TestFusionHappens:
    def test_fused_chain_matches_unfused(self):
        baseline = SerialEngine().run_chain(
            fusable_chain(), records_from(LINES), num_map_tasks=4
        )
        with MultiprocessEngine(max_workers=2) as engine:
            fused = engine.run_chain(
                fusable_chain(), records_from(LINES), num_map_tasks=4
            )
            assert engine.stats.fused_stages == 1
        assert fused[-1].records == baseline[-1].records
        assert fused[0].records_elided
        assert fused[0].records == []

    def test_run_seconds_accumulate_over_fused_chains(self):
        with MultiprocessEngine(max_workers=2) as engine:
            engine.run_chain(fusable_chain(), records_from(LINES), num_map_tasks=4)
            assert engine.stats.fused_stages == 1
            assert engine.stats.run_seconds > 0

    def test_elided_stage_counters_are_synthesized_exactly(self):
        baseline = SerialEngine().run_chain(
            fusable_chain(), records_from(LINES), num_map_tasks=4
        )
        with MultiprocessEngine(max_workers=2) as engine:
            fused = engine.run_chain(
                fusable_chain(), records_from(LINES), num_map_tasks=4
            )
        for stage in range(2):
            for name in DATA_PLANE_COUNTERS:
                assert fused[stage].counters.get(FRAMEWORK_GROUP, name) == baseline[
                    stage
                ].counters.get(FRAMEWORK_GROUP, name), (stage, name)

    def test_elided_record_accessors_raise(self):
        with MultiprocessEngine(max_workers=2) as engine:
            fused = engine.run_chain(
                fusable_chain(), records_from(LINES), num_map_tasks=4
            )
        with pytest.raises(ValueError, match="elided"):
            fused[0].values()
        with pytest.raises(ValueError, match="elided"):
            fused[0].as_dict()

    def test_three_stage_chain_fuses_twice(self):
        chain = fusable_chain() + [
            Job(name="rollup-2", reducer=MaxReducer, num_reducers=2)
        ]
        baseline = SerialEngine().run_chain(
            chain, records_from(LINES), num_map_tasks=4
        )
        with MultiprocessEngine(max_workers=2) as engine:
            fused = engine.run_chain(chain, records_from(LINES), num_map_tasks=4)
            assert engine.stats.fused_stages == 2
        assert fused[-1].records == baseline[-1].records
        assert fused[0].records_elided and fused[1].records_elided


class TestFusionGuards:
    def run_fused(self, chain, retries=None, **kwargs):
        with MultiprocessEngine(max_workers=2, **(retries or {})) as engine:
            results = engine.run_chain(chain, records_from(LINES), **kwargs)
            return results, engine.stats.fused_stages

    def test_fuse_false_forces_sequential(self):
        results, fused_stages = self.run_fused(
            fusable_chain(), num_map_tasks=4, fuse=False
        )
        assert fused_stages == 0
        assert results[0].records and not results[0].records_elided

    def test_fuse_false_keeps_every_stages_records(self):
        """The one opt-out: there is no per-job config key beside it."""
        serial = SerialEngine().run_chain(fusable_chain(), records_from(LINES), num_map_tasks=4)
        results, fused_stages = self.run_fused(fusable_chain(), num_map_tasks=4, fuse=False)
        assert fused_stages == 0
        for stage, reference in zip(results, serial):
            assert not stage.records_elided
            assert stage.records == reference.records

    def test_non_identity_mapper_falls_back(self):
        baseline = SerialEngine().run_chain(
            fusable_chain(mapper=IncrementMapper), records_from(LINES), num_map_tasks=4
        )
        results, fused_stages = self.run_fused(
            fusable_chain(mapper=IncrementMapper), num_map_tasks=4
        )
        assert fused_stages == 0
        assert results[-1].records == baseline[-1].records

    def test_relay_mode_never_fuses(self):
        with MultiprocessEngine(max_workers=2, shuffle_mode="relay") as engine:
            results = engine.run_chain(
                fusable_chain(), records_from(LINES), num_map_tasks=4
            )
            assert engine.stats.fused_stages == 0
        assert results[0].records

    def test_map_targeting_fault_plan_blocks_fusion(self):
        # A plan that could fire on the next job's (elided) map attempts
        # must force the unfused path so the faults actually run.
        plan = FaultPlan(faults=[CrashFault(task_kind="map")])
        retries = {"fault_plan": plan, "max_attempts": 2}
        _, fused_stages = self.run_fused(fusable_chain(), retries, num_map_tasks=4)
        assert fused_stages == 0

    def test_reduce_only_fault_plan_still_fuses(self):
        plan = FaultPlan(faults=[CrashFault(task_kind="reduce", attempts=(1,))])
        baseline = SerialEngine().run_chain(
            fusable_chain(), records_from(LINES), num_map_tasks=4
        )
        results, fused_stages = self.run_fused(
            fusable_chain(), {"fault_plan": plan, "max_attempts": 2}, num_map_tasks=4
        )
        assert fused_stages == 1
        assert results[-1].records == baseline[-1].records

    def test_serial_engine_accepts_and_ignores_fuse(self):
        results = SerialEngine().run_chain(
            fusable_chain(), records_from(LINES), num_map_tasks=4, fuse=True
        )
        assert results[0].records and not results[0].records_elided


class TestPipelineIntegration:
    def test_pairwise_run_fuses_and_matches_serial(self):
        scheme = DesignScheme(13)
        dataset = list(range(100, 100 + scheme.v))
        serial = PairwiseComputation(scheme, abs_distance).run(dataset)
        with MultiprocessEngine(max_workers=2) as engine:
            computation = PairwiseComputation(scheme, abs_distance, engine=engine)
            fused = computation.run(dataset)
            assert engine.stats.fused_stages == 1
        assert fused == serial

    def test_pairwise_return_pipeline_disables_fusion(self):
        scheme = DesignScheme(13)
        dataset = list(range(100, 100 + scheme.v))
        with MultiprocessEngine(max_workers=2) as engine:
            computation = PairwiseComputation(scheme, abs_distance, engine=engine)
            merged, result = computation.run(dataset, return_pipeline=True)
            assert engine.stats.fused_stages == 0
        # Per-stage records stay inspectable for the Table-1 measurements.
        assert result.stages[0].records
        assert merged == PairwiseComputation(scheme, abs_distance).run(dataset)

    def test_pairwise_run_cached_fuses(self):
        scheme = DesignScheme(13)
        dataset = list(range(100, 100 + scheme.v))
        serial = PairwiseComputation(scheme, abs_distance).run_cached(dataset)
        with MultiprocessEngine(max_workers=2) as engine:
            computation = PairwiseComputation(scheme, abs_distance, engine=engine)
            fused = computation.run_cached(dataset)
            assert engine.stats.fused_stages == 1
        assert fused == serial


def abs_distance(a, b):
    return abs(a - b)
