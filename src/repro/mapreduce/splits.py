"""Input splits: how a job's input is carved into map tasks.

The execution model (§3) assumes "the input dataset is stored as files,
distributed on the participating nodes ... each file contains multiple
records".  A :class:`Split` is one map task's slice of those records;
the engine plans them with :func:`split_by_count`, and ``resume_job``
hands a journaled job's planned splits back to ``Engine.run(splits=…)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

KeyValue = tuple[Any, Any]


@dataclass
class Split:
    """One map task's input: a list of records."""

    records: list[KeyValue]

    def __len__(self) -> int:
        return len(self.records)


def split_by_count(records: Sequence[KeyValue], num_splits: int) -> list[Split]:
    """Carve records into ``num_splits`` contiguous, near-equal splits.

    Sizes differ by at most one record; trailing splits may be empty when
    there are fewer records than splits (they still run, as empty Hadoop
    splits do).
    """
    if num_splits < 1:
        raise ValueError(f"num_splits must be >= 1, got {num_splits}")
    n = len(records)
    base, extra = divmod(n, num_splits)
    splits = []
    start = 0
    for index in range(num_splits):
        size = base + (1 if index < extra else 0)
        splits.append(Split(records=list(records[start : start + size])))
        start += size
    return splits
