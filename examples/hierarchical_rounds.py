#!/usr/bin/env python
"""Hierarchical processing of a dataset no flat scheme can handle (§7).

Constructs a workload whose flat block scheme violates the environment's
maxws/maxis limits, then runs it with the two-level block schedule:
coarse rounds processed sequentially (each aggregated before the next
starts), fine tasks in parallel within a round.  Shows both limits easing
and verifies the computed results against brute force.

Run:  python examples/hierarchical_rounds.py
"""

from repro import GB, KB, MB
from repro._util import format_bytes
from repro.cluster import ClusterSimulator, ClusterSpec, NodeSpec
from repro.core import (
    BlockScheme,
    HierarchicalBlockScheme,
    PairResults,
    brute_force_results,
    run_rounds,
)

V = 600
ELEMENT_SIZE = 1 * MB          # 600 MB dataset
MAXWS = 100 * MB               # tight slots
MAXIS = 2 * GB                 # tight intermediate storage


def distance(a: float, b: float) -> float:
    return abs(a - b)


def main() -> None:
    cluster = ClusterSpec.homogeneous(6, NodeSpec(slot_memory=MAXWS, slots=2))
    sim = ClusterSimulator(cluster, maxis=MAXIS)

    # Flat block scheme: every h either blows maxws (small h) or maxis
    # (large h) — show the squeeze at a representative h.
    flat = sim.simulate(BlockScheme(V, 4), ELEMENT_SIZE)
    print(f"flat block (h=4) on v={V} × {format_bytes(ELEMENT_SIZE)}:")
    for check in flat.limit_checks:
        print("   ", check.format())

    # Two-level schedule: coarse H=6 rounds, fine factor 4.
    schedule = HierarchicalBlockScheme(V, coarse_h=6, fine_h=4)
    hier = sim.simulate_schedule(schedule, ELEMENT_SIZE)
    print(f"\nhierarchical (H=6, f=4, {schedule.num_rounds} sequential rounds):")
    for check in hier.limit_checks:
        print("   ", check.format())
    print(f"    makespan {hier.measured.makespan_seconds:.1f}s "
          f"(flat would be {flat.measured.makespan_seconds:.1f}s if it fit)")
    assert hier.feasible and not flat.feasible

    # Correctness of the actual round-by-round computation (small replica
    # of the same schedule shape).
    small = [float((x * 13 + 7) % 101) for x in range(60)]
    out = run_rounds(small, distance, HierarchicalBlockScheme(60, 6, 4))
    assert PairResults.of(out).pairs() == brute_force_results(small, distance)
    print("\nround-by-round execution matches brute force ✓")


if __name__ == "__main__":
    main()
