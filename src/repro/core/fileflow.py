"""File-backed pairwise execution: the deployment shape of the paper.

The execution model (§3) has the dataset arriving as files written by a
preceding job, the intermediate data *materialized* between the two MR
jobs (that materialization is exactly what the maxis limit constrains),
and results written back as files.  :func:`run_pairwise_on_files` runs
that full shape on local disk:

1. element files → job 1 (distribute + compute), its output **written to
   disk** as the materialized intermediate,
2. intermediate files → job 2 (aggregate) → ``part-r-*.jsonl`` outputs,

and reports the *actual on-disk byte sizes* of each stage, so the
Table-1 intermediate-storage prediction (``v·s·replication``) can be
checked against a real filesystem, not just the simulator's model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..mapreduce.runtime import Engine, SerialEngine
from ..mapreduce.splits import Split
from ..mapreduce.textio import (
    read_records,
    write_partitioned,
    write_records,
)
from .element import Element
from .pairwise import PairwiseComputation


@dataclass(frozen=True)
class FileFlowReport:
    """Byte- and record-level accounting of one file-backed run.

    ``intermediate_records`` counts element copies — the memberships job
    1's result blocks list (Σ block ids) — not the blocks themselves, so
    it is ``v·r`` however the copies were packed.
    """

    input_files: int
    input_bytes: int
    input_records: int
    intermediate_files: int
    intermediate_bytes: int
    intermediate_records: int
    output_files: int
    output_bytes: int
    output_records: int

    @property
    def disk_replication_factor(self) -> float:
        """Measured replication: intermediate records per input record."""
        if self.input_records == 0:
            return 0.0
        return self.intermediate_records / self.input_records


def write_element_files(
    directory: Path | str,
    payloads: Sequence,
    *,
    files: int = 4,
) -> list[Path]:
    """Write a dataset as element files (the 'preceding job's' output).

    Elements get ids 1..v; records are ``(eid, Element)`` spread over
    ``files`` JSONL files round-robin — mimicking a DFS directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if files < 1:
        raise ValueError(f"files must be >= 1, got {files}")
    buckets: list[list] = [[] for _ in range(files)]
    for index, payload in enumerate(payloads):
        eid = index + 1
        buckets[index % files].append((eid, Element(eid, payload)))
    paths = []
    for index, bucket in enumerate(buckets):
        path = directory / f"elements-{index:04d}.jsonl"
        write_records(path, bucket)
        paths.append(path)
    return paths


def _dir_bytes(paths: Sequence[Path]) -> int:
    return sum(path.stat().st_size for path in paths)


def run_pairwise_on_files(
    computation: PairwiseComputation,
    input_paths: Sequence[Path | str],
    work_dir: Path | str,
    *,
    engine: Engine | None = None,
) -> tuple[list[Path], FileFlowReport]:
    """Run the two-job pairwise pipeline with on-disk intermediates.

    Returns ``(output part paths, accounting report)``.  The intermediate
    directory (``work_dir/intermediate``) holds job 1's full output — one
    file per reduce task — and is left in place for inspection, exactly
    like Hadoop's materialized job output between chained jobs.
    """
    input_paths = [Path(p) for p in input_paths]
    if not input_paths:
        raise ValueError("need at least one input file")
    work_dir = Path(work_dir)
    engine = engine or computation.engine or SerialEngine()
    job1, job2 = computation.build_jobs()

    # --- Job 1: distribute + compute, one split per input file -------------
    splits = [Split(records=list(read_records(path))) for path in input_paths]
    input_records = sum(len(split.records) for split in splits)
    result1 = engine.run(job1, splits=splits)

    # Materialize the intermediate (the maxis-constrained data!).
    inter_dir = work_dir / "intermediate"
    num_parts = max(1, result1.num_reduce_tasks)
    from ..mapreduce.shuffle import hash_partition

    partitioner = job1.partitioner or hash_partition
    buckets: list[list] = [[] for _ in range(num_parts)]
    for key, value in result1.records:
        buckets[partitioner(key, num_parts)].append((key, value))
    inter_paths = write_partitioned(inter_dir, buckets)

    # --- Job 2: aggregate, reading the materialized intermediate -----------
    splits2 = [Split(records=list(read_records(path))) for path in inter_paths]
    result2 = engine.run(job2, splits=splits2)
    out_dir = work_dir / "output"
    out_buckets: list[list] = [[] for _ in range(max(1, result2.num_reduce_tasks))]
    for key, value in result2.records:
        out_buckets[partitioner(key, len(out_buckets))].append((key, value))
    output_paths = write_partitioned(out_dir, out_buckets)

    report = FileFlowReport(
        input_files=len(input_paths),
        input_bytes=_dir_bytes(input_paths),
        input_records=input_records,
        intermediate_files=len(inter_paths),
        intermediate_bytes=_dir_bytes(inter_paths),
        intermediate_records=sum(len(block[0]) for _partition, block in result1.records),
        output_files=len(output_paths),
        output_bytes=_dir_bytes(output_paths),
        output_records=len(result2.records),
    )
    return output_paths, report


def load_elements(paths: Sequence[Path | str]) -> dict[int, Element]:
    """Read final elements back from output part files."""
    out: dict[int, Element] = {}
    for path in paths:
        for key, value in read_records(path):
            if not isinstance(value, Element):
                raise TypeError(
                    f"{path}: expected Element records, got {type(value).__name__}"
                )
            if key in out:
                raise ValueError(f"duplicate element id {key} across part files")
            out[key] = value
    return out
