"""File-backed pairwise execution tests."""

import pytest

from repro.core.block import BlockScheme
from repro.core.design import DesignScheme
from repro.core.element import results_matrix
from repro.core.fileflow import (
    load_elements,
    run_pairwise_on_files,
    write_element_files,
)
from repro.core.pairwise import PairwiseComputation, brute_force_results
from repro.mapreduce.textio import read_records

from ..conftest import abs_diff


@pytest.fixture
def dataset():
    return [float((x * 11 + 3) % 31) for x in range(20)]


class TestElementFiles:
    def test_round_robin_layout(self, tmp_path, dataset):
        paths = write_element_files(tmp_path / "in", dataset, files=3)
        assert len(paths) == 3
        from repro.mapreduce.textio import read_records

        all_ids = sorted(
            key for path in paths for key, _value in read_records(path)
        )
        assert all_ids == list(range(1, 21))

    def test_bad_file_count(self, tmp_path):
        with pytest.raises(ValueError):
            write_element_files(tmp_path, [1.0], files=0)


class TestEndToEnd:
    def test_matches_brute_force(self, tmp_path, dataset):
        paths = write_element_files(tmp_path / "in", dataset, files=4)
        computation = PairwiseComputation(BlockScheme(20, 4), abs_diff)
        out_paths, report = run_pairwise_on_files(
            computation, paths, tmp_path / "work"
        )
        elements = load_elements(out_paths)
        assert results_matrix(elements) == brute_force_results(dataset, abs_diff)
        assert report.output_records == 20

    def test_files_carry_payloads_at_every_stage(self, tmp_path, dataset):
        """build_jobs() chains through files: nobody re-attaches payloads there,
        so the elements written between and after the jobs must hold them."""
        paths = write_element_files(tmp_path / "in", dataset, files=4)
        computation = PairwiseComputation(BlockScheme(20, 4), abs_diff)
        out_paths, _report = run_pairwise_on_files(computation, paths, tmp_path / "work")
        inter_paths = sorted((tmp_path / "work" / "intermediate").glob("part-r-*.jsonl"))
        for stage in (inter_paths, out_paths):
            records = [record for path in stage for record in read_records(path)]
            assert records
            assert all(element.payload == dataset[eid - 1] for eid, element in records)

    def test_intermediate_measures_replication(self, tmp_path, dataset):
        """Table 1: job-1 output holds exactly v·h element copies."""
        scheme = BlockScheme(20, 4)
        paths = write_element_files(tmp_path / "in", dataset, files=2)
        computation = PairwiseComputation(scheme, abs_diff)
        _out, report = run_pairwise_on_files(computation, paths, tmp_path / "work")
        assert report.intermediate_records == 20 * scheme.h
        assert report.disk_replication_factor == scheme.h
        # Materialized intermediate really is bigger than the input.
        assert report.intermediate_bytes > report.input_bytes

    def test_intermediate_left_on_disk(self, tmp_path, dataset):
        paths = write_element_files(tmp_path / "in", dataset)
        computation = PairwiseComputation(DesignScheme(20), abs_diff)
        run_pairwise_on_files(computation, paths, tmp_path / "work")
        inter = list((tmp_path / "work" / "intermediate").glob("part-r-*.jsonl"))
        assert inter  # inspectable, like chained Hadoop jobs

    def test_empty_inputs_rejected(self, tmp_path, dataset):
        computation = PairwiseComputation(BlockScheme(20, 2), abs_diff)
        with pytest.raises(ValueError):
            run_pairwise_on_files(computation, [], tmp_path / "work")

    def test_load_elements_detects_duplicates(self, tmp_path):
        from repro.core.element import Element
        from repro.mapreduce.textio import write_records

        write_records(tmp_path / "a.jsonl", [(1, Element(1, 0.5))])
        write_records(tmp_path / "b.jsonl", [(1, Element(1, 0.5))])
        with pytest.raises(ValueError):
            load_elements([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])

    def test_load_elements_type_check(self, tmp_path):
        from repro.mapreduce.textio import write_records

        write_records(tmp_path / "bad.jsonl", [(1, "not an element")])
        with pytest.raises(TypeError):
            load_elements([tmp_path / "bad.jsonl"])
