"""Hadoop-style hierarchical counters.

Counters are the MR framework's only side channel for metrics: mappers and
reducers increment named counters in groups, the framework aggregates them
across tasks, and the job result exposes the totals.  The evaluation
harness uses them to *measure* the quantities the paper's Table 1 predicts
(records shuffled, bytes materialized, pair evaluations per task).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

# Framework counter names (group FRAMEWORK_GROUP).
FRAMEWORK_GROUP = "framework"
MAP_INPUT_RECORDS = "map_input_records"
MAP_OUTPUT_RECORDS = "map_output_records"
MAP_OUTPUT_BYTES = "map_output_bytes"
SHUFFLE_RECORDS = "shuffle_records"
SHUFFLE_BYTES = "shuffle_bytes"
REDUCE_INPUT_GROUPS = "reduce_input_groups"
REDUCE_INPUT_RECORDS = "reduce_input_records"
REDUCE_OUTPUT_RECORDS = "reduce_output_records"


class Counters:
    """A two-level map ``group → name → int`` with merge support.

    >>> c = Counters()
    >>> c.increment("app", "pairs", 3)
    >>> c.get("app", "pairs")
    3
    """

    def __init__(self) -> None:
        self._data: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` (may be negative) to counter ``group:name``."""
        self._data[group][name] += amount

    def set_max(self, group: str, name: str, value: int) -> None:
        """Raise a *gauge* counter to ``value`` if larger.

        Gauges aggregate by maximum instead of sum (the framework merges
        them the same way — see :meth:`merge`), which is what per-task
        peak quantities like working-set size need.  Gauge names must
        carry the ``max_`` prefix so merge knows how to combine them.
        """
        if not name.startswith("max_"):
            raise ValueError(f"gauge counters must be named max_*, got {name!r}")
        if value > self._data[group][name]:
            self._data[group][name] = value

    def get(self, group: str, name: str) -> int:
        """Current value; 0 for a counter never incremented."""
        return self._data.get(group, {}).get(name, 0)

    def group(self, group: str) -> dict[str, int]:
        """Snapshot of one counter group."""
        return dict(self._data.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Fold another task's counters into this one (framework aggregation).

        Plain counters add; ``max_*`` gauges take the maximum across tasks.
        """
        for group, names in other._data.items():
            for name, value in names.items():
                if name.startswith("max_"):
                    if value > self._data[group][name]:
                        self._data[group][name] = value
                else:
                    self._data[group][name] += value

    def items(self) -> Iterator[tuple[str, str, int]]:
        """Iterate ``(group, name, value)`` triples, sorted for stable output."""
        for group in sorted(self._data):
            for name in sorted(self._data[group]):
                yield group, name, self._data[group][name]

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Plain nested-dict snapshot (picklable across process boundaries)."""
        return {group: dict(names) for group, names in self._data.items()}

    @classmethod
    def from_dict(cls, data: dict[str, dict[str, int]]) -> "Counters":
        counters = cls()
        for group, names in data.items():
            for name, value in names.items():
                counters.increment(group, name, value)
        return counters

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"{g}:{n}={v}" for g, n, v in self.items()]
        return "Counters(" + ", ".join(lines) + ")"
