"""Theory-vs-measured comparison structures for the §6 evaluation.

The paper reports that measured replication factors and working-set sizes
"showed to be close to our theoretic evaluations", with the working-set
limit hit slightly early due to runtime overhead.  These dataclasses carry
one scheme's predicted Table-1 row next to the simulator's measurements and
compute the relative errors the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheme import SchemeMetrics


@dataclass(frozen=True)
class MeasuredMetrics:
    """What the simulator actually observed for one scheme run."""

    scheme: str
    v: int
    num_tasks: int
    #: total element replicas shipped (per job leg; ×2 for the round trip)
    replicas: int
    replication_factor: float
    max_working_set_elements: int
    max_working_set_bytes: int
    #: peak per-task memory including runtime overhead
    max_task_memory_bytes: int
    intermediate_bytes: int
    total_evaluations: int
    max_evaluations_per_task: int
    makespan_seconds: float


@dataclass(frozen=True)
class ComparisonRow:
    """Predicted vs measured for one quantity."""

    quantity: str
    predicted: float
    measured: float

    @property
    def relative_error(self) -> float:
        """|measured − predicted| / predicted (0 when both are 0)."""
        if self.predicted == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.predicted) / abs(self.predicted)


@dataclass(frozen=True)
class TheoryComparison:
    """Full theory-vs-measured record for one simulated scheme."""

    theory: SchemeMetrics
    measured: MeasuredMetrics

    def rows(self) -> list[ComparisonRow]:
        return [
            ComparisonRow("num_tasks", self.theory.num_tasks, self.measured.num_tasks),
            ComparisonRow(
                "replication_factor",
                self.theory.replication_factor,
                self.measured.replication_factor,
            ),
            ComparisonRow(
                "working_set_elements",
                self.theory.working_set_elements,
                self.measured.max_working_set_elements,
            ),
            ComparisonRow(
                "evaluations_per_task",
                self.theory.evaluations_per_task,
                self.measured.max_evaluations_per_task,
            ),
        ]

    def format(self) -> str:
        lines = [f"{self.theory.scheme} (v={self.theory.v}):"]
        for row in self.rows():
            lines.append(
                f"  {row.quantity:<22} theory={row.predicted:>12.6g}  "
                f"measured={row.measured:>12.6g}  err={row.relative_error:7.2%}"
            )
        return "\n".join(lines)
