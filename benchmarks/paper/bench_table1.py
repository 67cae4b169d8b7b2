"""T1 — Table 1: comparison of distribution schemes.

Regenerates the paper's Table 1 for concrete parameterizations: the three
schemes' number of tasks, communication costs, replication factor, working
set size, and evaluations per task — both the closed forms and the values
measured on actually-constructed schemes (they must agree).

Paper's qualitative shape asserted below:
- broadcast: arbitrary tasks (✓), comm 2vp (✗ scales with p), repl p (✓
  small), ws v (✗), evals T/p (✓);
- block: comm 2vh (✓), repl h (✓ tunable), ws 2⌈v/h⌉ (✓), evals ⌈v/h⌉² (✓);
- design: tasks ≥ v (✗ not tunable), comm ≈ 2v√v (✗), repl ≈ √v (✗),
  ws ≈ √v (✓), evals ≈ (v−1)/2 (✓).
"""

from __future__ import annotations

import math

from harness import format_table, write_report

from repro._util import KB
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.cost_model import block_row, broadcast_row, design_row
from repro.core.design import DesignScheme

V = 2_000
P = 16  # broadcast tasks (nodes)
H = 20  # blocking factor
ELEMENT_SIZE = 100 * KB


def build_table1() -> list:
    """All three Table-1 rows, from the real constructed schemes."""
    return [
        BroadcastScheme(V, P).metrics(),
        BlockScheme(V, H).metrics(),
        DesignScheme(V, num_nodes=P).metrics(),
    ]


def test_table1_closed_forms_match_constructions(benchmark):
    rows = benchmark(build_table1)
    broadcast, block, design = rows

    # Closed forms agree with constructed schemes (broadcast/block exactly;
    # the default padded design row tracks the real padded construction to
    # within the truncation loss, not the old √v approximation).
    assert broadcast == broadcast_row(V, P)
    assert block == block_row(V, H)
    approx = design_row(V, num_nodes=P)
    assert math.isclose(design.replication_factor, approx.replication_factor, rel_tol=0.01)
    assert design.working_set_elements == approx.working_set_elements

    # --- the paper's Table-1 shape ------------------------------------------
    # Communication: broadcast 2vp, block 2vh, design ≈ 2v√v capped at 2vn.
    assert broadcast.communication_records == 2 * V * P
    assert block.communication_records == 2 * V * H
    assert design.communication_records <= 2 * V * P  # the 2vn cap

    # Replication: block's h is tunable and modest; design's ≈ √v is large.
    assert block.replication_factor == H
    assert design.replication_factor > 2 * block.replication_factor / 2

    # Working set: broadcast holds everything; design ≈ √v is the smallest.
    assert broadcast.working_set_elements == V
    assert design.working_set_elements < block.working_set_elements < V

    # Balance: every scheme's evals/task times tasks covers the triangle.
    total = V * (V - 1) / 2
    for row in rows:
        assert row.evaluations_per_task * row.num_tasks >= total * 0.99

    table = format_table(
        ["metric", "broadcast", "block", "design"],
        [
            ["tasks (p)", broadcast.num_tasks, block.num_tasks, design.num_tasks],
            [
                "communication (records)",
                broadcast.communication_records,
                block.communication_records,
                design.communication_records,
            ],
            [
                "replication factor",
                broadcast.replication_factor,
                block.replication_factor,
                round(design.replication_factor, 2),
            ],
            [
                "working set (elements)",
                broadcast.working_set_elements,
                block.working_set_elements,
                design.working_set_elements,
            ],
            [
                "evaluations per task",
                round(broadcast.evaluations_per_task, 1),
                round(block.evaluations_per_task, 1),
                round(design.evaluations_per_task, 1),
            ],
            [
                "working set (bytes)",
                broadcast.working_set_bytes(ELEMENT_SIZE),
                block.working_set_bytes(ELEMENT_SIZE),
                design.working_set_bytes(ELEMENT_SIZE),
            ],
            [
                "intermediate (bytes)",
                broadcast.intermediate_bytes(ELEMENT_SIZE),
                block.intermediate_bytes(ELEMENT_SIZE),
                design.intermediate_bytes(ELEMENT_SIZE),
            ],
        ],
    )
    # Distance from the replication lower bound, per scheme, at each
    # scheme's own working-set capacity (Afrati/Ullman (v−1)/(q−1)).
    bound_lines = "\n".join(
        scheme.replication_report().summary()
        for scheme in (BroadcastScheme(V, P), BlockScheme(V, H), DesignScheme(V, num_nodes=P))
    )
    write_report(
        "table1",
        f"Table 1 — scheme comparison at v={V}, p={P}, h={H}, s={ELEMENT_SIZE}B",
        table + "\n\nreplication vs lower bound:\n" + bound_lines,
    )


def test_table1_symbolic_formulas(benchmark):
    """The closed-form generators themselves, across a parameter sweep."""

    def sweep():
        rows = []
        for v in (100, 1_000, 10_000, 100_000):
            rows.append(
                (
                    v,
                    broadcast_row(v, 16),
                    block_row(v, 20),
                    # padded=False: the paper's symbolic √v form, so the
                    # scaling-shape asserts below stay exact.
                    design_row(v, num_nodes=16, padded=False),
                )
            )
        return rows

    rows = benchmark(sweep)
    # Scaling shape: design replication grows as √v, block's stays constant.
    reps = [design.replication_factor for _v, _b, _bl, design in rows]
    assert math.isclose(reps[1] / reps[0], 10**0.5, rel_tol=1e-12)
    assert all(block.replication_factor == 20 for _v, _b, block, _d in rows)
