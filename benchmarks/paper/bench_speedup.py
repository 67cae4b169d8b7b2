"""A9 — scalability: model-predicted speedup vs the discrete simulator.

The paper's "no node should ever be idle" claim (§6, Number of Tasks)
made quantitative: speedup curves S(n) for the three schemes from the
closed-form model, cross-checked against the LPT simulator, with the
per-scheme parallelism ceilings (task counts) visible as saturation.
"""

from __future__ import annotations

from harness import format_table, write_report

from repro._util import KB, MB
from repro.cluster import ClusterSimulator, ClusterSpec, NodeSpec
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.speedup import MachineModel, max_useful_nodes, speedup_curve

V = 1_000
S = 50 * KB
NODES = [1, 2, 4, 8, 16, 32]
MACHINE = MachineModel(eval_seconds=1e-4, bandwidth=100 * MB, slots_per_node=2)


def model_curves():
    schemes = {
        "broadcast(p=16)": BroadcastScheme(V, 16),
        "block(h=20)": BlockScheme(V, 20),
        "design": DesignScheme(V),
    }
    return {
        label: (scheme, speedup_curve(scheme.metrics(), S, NODES, MACHINE))
        for label, scheme in schemes.items()
    }


def test_model_speedup_shapes(benchmark):
    curves = benchmark(model_curves)

    rows = []
    for label, (scheme, points) in curves.items():
        ceiling = max_useful_nodes(scheme.metrics(), MACHINE.slots_per_node)
        for point in points:
            rows.append(
                [label, point.nodes, round(point.speedup, 2),
                 f"{point.efficiency:.0%}", ceiling]
            )
        # Sub-linear, monotone speedup everywhere.
        speedups = [p.speedup for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
        assert all(p.speedup <= p.nodes + 1e-9 for p in points)

    # Broadcast (16 tasks) saturates by 8 nodes; block/design keep going.
    broadcast_points = curves["broadcast(p=16)"][1]
    s8 = next(p.speedup for p in broadcast_points if p.nodes == 8)
    s32 = next(p.speedup for p in broadcast_points if p.nodes == 32)
    assert s32 / s8 < 1.6  # nearly flat past its task count
    design_points = curves["design"][1]
    d8 = next(p.speedup for p in design_points if p.nodes == 8)
    d32 = next(p.speedup for p in design_points if p.nodes == 32)
    assert d32 / d8 > 2.0  # still scaling: tasks ≫ slots

    write_report(
        "speedup",
        f"A9 — model speedup curves (v={V}, s={S}B)",
        format_table(["scheme", "nodes", "speedup", "efficiency", "task ceiling"], rows),
    )


def test_simulator_agrees_with_model_trend(benchmark):
    """The discrete LPT simulator shows the same saturation ordering."""

    def simulate():
        out = {}
        for label, scheme in (
            ("broadcast", BroadcastScheme(V, 16)),
            ("design", DesignScheme(V)),
        ):
            times = {}
            for nodes in (2, 16):
                cluster = ClusterSpec.homogeneous(
                    nodes, NodeSpec(slots=2, eval_rate=1e4)
                )
                sim = ClusterSimulator(cluster)
                times[nodes] = sim.simulate(scheme, S).measured.makespan_seconds
            out[label] = times[2] / times[16]  # realized 2→16 speedup
        return out

    gains = benchmark(simulate)
    # Design (many small tasks) gains close to 8× from 2→16 nodes;
    # broadcast (16 tasks) gains far less.
    assert gains["design"] > gains["broadcast"]
    assert gains["design"] > 4.0
