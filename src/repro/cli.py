"""Command-line interface: validate schemes, print metrics, plan capacity.

Subcommands::

    python -m repro metrics  --v 10000 --element-size 500KB --tasks 16 --h 20
    python -m repro validate --scheme block --v 100 --h 5
    python -m repro plan     --v 50000 --element-size 100KB \\
                             --maxws 200MB --maxis 1TB
    python -m repro figures  --which 9b
    python -m repro replication --v 58 --element-size 64KB
    python -m repro demo     --app dbscan

Size arguments accept suffixes KB/MB/GB/TB (decimal, the paper's units).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ._util import GB, KB, MB, TB, format_bytes


def parse_size(text: str) -> int:
    """'500KB' → 500_000; bare integers are bytes."""
    text = text.strip().upper()
    for suffix, factor in (("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB), ("B", 1)):
        if text.endswith(suffix):
            number = text[: -len(suffix)].strip()
            try:
                value = float(number)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad size: {text!r}") from None
            result = int(value * factor)
            if result < 1:
                raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
            return result
    try:
        result = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size: {text!r}") from None
    if result < 1:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pairwise Element Computation with MapReduce (HPDC 2010) tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    metrics = sub.add_parser("metrics", help="print the Table-1 rows")
    metrics.add_argument("--v", type=int, required=True, help="dataset cardinality")
    metrics.add_argument("--element-size", type=parse_size, default=500 * KB)
    metrics.add_argument("--tasks", type=int, default=16, help="broadcast task count")
    metrics.add_argument("--h", type=int, default=20, help="block blocking factor")
    metrics.add_argument("--nodes", type=int, default=None, help="2vn cap for design")

    validate = sub.add_parser("validate", help="exhaustively check a scheme")
    validate.add_argument(
        "--scheme", choices=["broadcast", "block", "design", "quorum"], required=True
    )
    validate.add_argument("--v", type=int, required=True)
    validate.add_argument("--tasks", type=int, default=8)
    validate.add_argument("--h", type=int, default=4)
    validate.add_argument("--prime-powers", action="store_true")

    plan = sub.add_parser("plan", help="recommend a scheme for a workload")
    plan.add_argument("--v", type=int, required=True)
    plan.add_argument("--element-size", type=parse_size, required=True)
    plan.add_argument("--maxws", type=parse_size, default=200 * MB)
    plan.add_argument("--maxis", type=parse_size, default=1 * TB)
    plan.add_argument("--nodes", type=int, default=8)

    figures = sub.add_parser("figures", help="print a paper figure's series")
    figures.add_argument(
        "--which", choices=["8a", "8b", "9a", "9b"], required=True
    )

    replication = sub.add_parser(
        "replication",
        help="compare each scheme's replication to the lower bound",
    )
    replication.add_argument("--v", type=int, required=True)
    replication.add_argument("--element-size", type=parse_size, default=500 * KB)
    replication.add_argument("--tasks", type=int, default=8, help="broadcast tasks")
    replication.add_argument("--h", type=int, default=4, help="block factor")
    replication.add_argument("--prime-powers", action="store_true")

    demo = sub.add_parser("demo", help="run a small application demo")
    demo.add_argument(
        "--app",
        choices=["dbscan", "docsim", "genes", "covariance", "coreference"],
        required=True,
    )

    simulate = sub.add_parser(
        "simulate", help="plan a workload, simulate it, show the Gantt"
    )
    simulate.add_argument("--v", type=int, required=True)
    simulate.add_argument("--element-size", type=parse_size, required=True)
    simulate.add_argument("--maxws", type=parse_size, default=200 * MB)
    simulate.add_argument("--maxis", type=parse_size, default=1 * TB)
    simulate.add_argument("--nodes", type=int, default=8)
    simulate.add_argument("--slots", type=int, default=2)
    simulate.add_argument("--gantt", action="store_true", help="print the task Gantt")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> int:
    from .core.cost_model import block_row, broadcast_row, design_row

    rows = [
        broadcast_row(args.v, args.tasks),
        block_row(args.v, args.h),
        design_row(args.v, num_nodes=args.nodes),
    ]
    print(f"Table 1 at v={args.v}, s={format_bytes(args.element_size)}:")
    for row in rows:
        print(" ", row.summary(args.element_size))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .core.block import BlockScheme
    from .core.broadcast import BroadcastScheme
    from .core.design import DesignScheme
    from .core.quorum import QuorumScheme
    from .core.validate import balance_report, check_exactly_once

    if args.scheme == "broadcast":
        scheme = BroadcastScheme(args.v, args.tasks)
    elif args.scheme == "block":
        scheme = BlockScheme(args.v, args.h)
    elif args.scheme == "quorum":
        scheme = QuorumScheme(args.v)
    else:
        scheme = DesignScheme(args.v, allow_prime_powers=args.prime_powers)

    report = check_exactly_once(scheme)
    print(scheme.describe())
    if report.ok:
        balance = balance_report(scheme)
        print(
            f"  exactly-once: OK ({report.total_pairs_seen} pairs); "
            f"imbalance {balance.eval_imbalance:.3f}, "
            f"replication {balance.replication_mean:.2f}, "
            f"max working set {balance.ws_max}"
        )
        return 0
    print(f"  exactly-once: FAILED — missing={report.missing[:3]} "
          f"duplicated={report.duplicated[:3]}")
    return 1


def cmd_plan(args: argparse.Namespace) -> int:
    from .core.chooser import InfeasibleWorkloadError, choose_scheme

    try:
        choice = choose_scheme(
            args.v,
            args.element_size,
            maxws=args.maxws,
            maxis=args.maxis,
            num_nodes=args.nodes,
        )
    except InfeasibleWorkloadError as exc:
        print(f"infeasible: {exc}")
        return 1
    print(choice.explain())
    kind = type(choice.scheme).__name__
    print(f"→ recommended: {kind}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .core.cost_model import (
        PAPER_MAXIS,
        PAPER_MAXWS,
        block_h_bounds,
        fig9b_curves,
        log_spaced_sizes,
        max_v_broadcast,
        max_v_design_storage,
    )

    sizes = log_spaced_sizes(10 * KB, 10 * MB, per_decade=3)
    if args.which == "8a":
        print("elem_size  maxv@200MB  maxv@400MB  maxv@1GB")
        for s in sizes:
            print(
                f"{format_bytes(s):>9}  {max_v_broadcast(s, 200 * MB):>10}  "
                f"{max_v_broadcast(s, 400 * MB):>10}  {max_v_broadcast(s, GB):>8}"
            )
    elif args.which == "8b":
        print("elem_size  maxv@100GB  maxv@1TB  maxv@10TB")
        for s in sizes:
            print(
                f"{format_bytes(s):>9}  {max_v_design_storage(s, 100 * GB):>10}  "
                f"{max_v_design_storage(s, TB):>8}  {max_v_design_storage(s, 10 * TB):>9}"
            )
    elif args.which == "9a":
        print("dataset  h_min  h_max  feasible")
        for vs in log_spaced_sizes(GB, 100 * GB, per_decade=3):
            bounds = block_h_bounds(vs, PAPER_MAXWS, PAPER_MAXIS)
            print(
                f"{format_bytes(vs):>7}  {bounds.h_min:>5}  {bounds.h_max:>5}  "
                f"{'yes' if bounds.feasible else 'no'}"
            )
    else:
        print("elem_size  broadcast  block  design")
        for point in fig9b_curves(sizes):
            print(
                f"{format_bytes(point.element_size):>9}  {point.broadcast:>9}  "
                f"{point.block:>6}  {point.design:>6}"
            )
    return 0


def cmd_replication(args: argparse.Namespace) -> int:
    from .core.block import BlockScheme
    from .core.broadcast import BroadcastScheme
    from .core.design import DesignScheme
    from .core.quorum import QuorumScheme
    from .designs.difference_covers import difference_cover

    schemes = [
        BroadcastScheme(args.v, args.tasks),
        BlockScheme(args.v, min(args.h, args.v)),
        DesignScheme(args.v, allow_prime_powers=args.prime_powers),
        QuorumScheme(args.v),
    ]
    print(
        f"replication vs the (v-1)/(capacity-1) lower bound at v={args.v}, "
        f"s={format_bytes(args.element_size)}:"
    )
    print(f"{'scheme':>10}  {'capacity':>8}  {'achieved':>8}  "
          f"{'bound':>7}  {'ratio':>6}  shuffle floor")
    for scheme in schemes:
        report = scheme.replication_report()
        floor = report.shuffle_bytes_floor(args.element_size)
        print(
            f"{report.scheme:>10}  {report.capacity_elements:>8}  "
            f"{report.replication_achieved:>8.2f}  "
            f"{report.replication_lower_bound:>7.2f}  "
            f"{report.optimality_ratio:>6.2f}  {format_bytes(floor)}"
        )
    cover = difference_cover(args.v)
    print(
        f"quorum cover: |D|={cover.size} ({cover.kind}), "
        f"D={sorted(cover.residues)}"
    )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    if args.app == "dbscan":
        from .apps.dbscan import dbscan_pairwise
        from .core.block import BlockScheme
        from .workloads import make_blobs

        points = make_blobs(60, num_clusters=3, spread=0.3, seed=1)
        result = dbscan_pairwise(points, 1.5, 3, BlockScheme(60, 5))
        print(f"dbscan: {result.num_clusters} clusters, "
              f"{sum(1 for l in result.labels.values() if l == -1)} noise points")
    elif args.app == "docsim":
        from .apps.docsim import build_tfidf, elsayed_similarity
        from .workloads import make_documents

        vectors = build_tfidf(make_documents(30, seed=1))
        sims, _ = elsayed_similarity(vectors, threshold=0.2)
        print(f"docsim: {len(sims)} document pairs above cosine 0.2")
    elif args.app == "genes":
        from .apps.mutualinfo import brute_force_mi, build_relevance_network
        from .workloads import make_expression_matrix

        matrix = make_expression_matrix(16, 80, num_linked_pairs=4, seed=1)
        mi = brute_force_mi([matrix[i] for i in range(16)])
        network = build_relevance_network(mi, 16, threshold=0.8)
        print(f"genes: {len(network.edges)} relevance edges")
    elif args.app == "covariance":
        import numpy as np

        from .apps.covariance import (
            assemble_covariance,
            center_rows,
            covariance_reference,
        )
        from .core.block import BlockScheme
        from .core.pairwise import pairwise_results
        from .apps.covariance import row_inner_product
        from .workloads import make_matrix

        A = make_matrix(12, 50, rank=3, seed=1)
        rows = center_rows(A)
        cov = assemble_covariance(
            pairwise_results(rows, row_inner_product, BlockScheme(12, 3)), rows
        )
        err = float(np.abs(cov - covariance_reference(A)).max())
        print(f"covariance: 12×12 matrix assembled, max |Δ| vs numpy = {err:.2e}")
    else:
        from .apps.coreference import CoreferenceComp, b_cubed, chains_from_scores
        from .core.design import DesignScheme
        from .core.pairwise import pairwise_results
        from .workloads.generator import make_mentions

        mentions, truth = make_mentions(6, 5, seed=1)
        scores = pairwise_results(
            mentions, CoreferenceComp(), DesignScheme(len(mentions))
        )
        chains = chains_from_scores(scores, len(mentions), 0.45)
        p, r, f1 = b_cubed(chains, truth)
        print(f"coreference: {chains.num_chains} chains, B³ F1 = {f1:.3f}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .cluster import ClusterSimulator, ClusterSpec, NodeSpec, build_trace
    from .core.chooser import InfeasibleWorkloadError, choose_scheme
    from .core.hierarchical import HierarchicalBlockScheme

    try:
        choice = choose_scheme(
            args.v, args.element_size,
            maxws=args.maxws, maxis=args.maxis, num_nodes=args.nodes,
        )
    except InfeasibleWorkloadError as exc:
        print(f"infeasible: {exc}")
        return 1
    cluster = ClusterSpec.homogeneous(
        args.nodes, NodeSpec(slot_memory=args.maxws, slots=args.slots)
    )
    simulator = ClusterSimulator(cluster, maxis=args.maxis)
    scheme = choice.scheme
    print(choice.explain())
    if isinstance(scheme, HierarchicalBlockScheme):
        report = simulator.simulate_schedule(scheme, args.element_size)
        print(f"simulated {scheme.num_rounds} sequential rounds")
    else:
        report = simulator.simulate(scheme, args.element_size)
        print(f"simulated {scheme.describe()}")
    m = report.measured
    print(
        f"  makespan {m.makespan_seconds:.1f}s  replication "
        f"{m.replication_factor:.2f}  max ws {format_bytes(m.max_working_set_bytes)}  "
        f"intermediate {format_bytes(m.intermediate_bytes)}"
    )
    for check in report.limit_checks:
        print("  " + check.format())
    if args.gantt and not isinstance(scheme, HierarchicalBlockScheme):
        trace = build_trace(report.costs, cluster)
        print(trace.gantt(width=64))
        print(f"  mean slot utilization: {trace.mean_utilization():.1%}")
    return 0 if report.feasible else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "metrics": cmd_metrics,
        "validate": cmd_validate,
        "plan": cmd_plan,
        "figures": cmd_figures,
        "replication": cmd_replication,
        "demo": cmd_demo,
        "simulate": cmd_simulate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
