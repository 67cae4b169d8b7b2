"""Split planning and job chaining tests."""

import pytest

from repro.mapreduce.job import Job, Mapper, records_from
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runtime import SerialEngine
from repro.mapreduce.splits import split_by_count

from .wordcount import SumReducer


class TestSplitByCount:
    def test_near_equal_sizes(self):
        splits = split_by_count(list(range(10)), 3)
        assert [len(s) for s in splits] == [4, 3, 3]

    def test_preserves_order(self):
        splits = split_by_count([(i, i) for i in range(10)], 3)
        flat = [r for s in splits for r in s.records]
        assert flat == [(i, i) for i in range(10)]

    def test_more_splits_than_records(self):
        splits = split_by_count([(1, "a")], 5)
        assert len(splits) == 5
        assert sum(len(s) for s in splits) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            split_by_count([], 0)


class DoubleMapper(Mapper):
    def map(self, key, value, context):
        context.emit(key, value * 2)


def run_chain(jobs, records):
    return PipelineResult(SerialEngine().run_chain(jobs, records))


class TestPipeline:
    def test_two_stage_chain(self):
        """Stage 1 doubles, stage 2 doubles again — composition works."""
        jobs = [
            Job(name="double1", mapper=DoubleMapper, reducer=SumReducer),
            Job(name="double2", mapper=DoubleMapper, reducer=SumReducer),
        ]
        result = run_chain(jobs, [(1, 5), (2, 7)])
        assert dict(result.records) == {1: 20, 2: 28}

    def test_stage_results_retained(self):
        jobs = [
            Job(name="a", mapper=DoubleMapper, reducer=SumReducer),
            Job(name="b", mapper=DoubleMapper, reducer=SumReducer),
        ]
        result = run_chain(jobs, [(1, 5)])
        assert len(result.stages) == 2
        assert dict(result.stages[0].records) == {1: 10}

    def test_counters_merged_across_stages(self):
        jobs = [
            Job(name="a", mapper=DoubleMapper, reducer=SumReducer),
            Job(name="b", mapper=DoubleMapper, reducer=SumReducer),
        ]
        result = run_chain(jobs, [(1, 5)])
        from repro.mapreduce.counters import FRAMEWORK_GROUP, MAP_INPUT_RECORDS

        assert result.counters.get(FRAMEWORK_GROUP, MAP_INPUT_RECORDS) == 2

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            SerialEngine().run_chain([], [(1, 5)])

    def test_empty_result_access(self):
        with pytest.raises(ValueError):
            PipelineResult().records


class TestJobResultHelpers:
    def test_as_dict_rejects_duplicate_keys(self):
        job = Job(name="dup", mapper=DoubleMapper, reducer=None, num_reducers=0)
        result = SerialEngine().run(job, [(1, 1), (1, 2)])
        with pytest.raises(ValueError):
            result.as_dict()

    def test_values(self):
        assert records_from(["x", "y"]) == [(0, "x"), (1, "y")]
