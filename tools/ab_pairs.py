#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark workloads, summarised per metric.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR (--workload W [--workload W2 ...] | --all)
                              [--pairs 10] [--seed0 300] [--layers]

``--all`` takes every workload the change's ``BENCHMARK.json`` declares — the "nothing
got worse on any workload" half of a claim in one command.

For each workload, and pair i (seed ``seed0 + i``), runs ``benchmarks/e2e/run.py
--workload W --seed S --seconds T --trace 0`` once in each checkout, T being the
change's ``BENCHMARK.json`` ``run_seconds`` — the parent first on odd pairs, the change
first on even ones — and reads the JSON on the run's last stdout line.  Prints one table
per workload, per end-to-end metric of the change's ``BENCHMARK.json``: both medians with
quartiles, the relative change, in how many pairs the change read better (ties count for
neither), whether the claim rule holds — the change wins at least 9 pairs in 10 and
its median beats the parent's by more than the parent's q3 − q1 — and the no-regression
verdict against the metric's ``bound`` (a relative tolerance): ``worse`` when the change's
median is worse than the parent's by more than the bound, ``unresolved`` when the parent's
relative q3 − q1 is wider than the bound (unless every change run beats every parent
run), ``ok`` otherwise.  Exits 1 when, on any workload, a metric reads ``worse`` or a
larger share of the change's operations failed than of the parent's (failed / attempted
over all of a side's runs: runs last a fixed time, so a slower side attempts fewer
operations and equal failure counts can hide a higher share): a gain does not count
then.  It runs the ruler and is not a second benchmark: it measures nothing itself.

``--layers`` attributes the difference to the engine's phases: every pair also runs
``run.py ... --trace 1`` once per side (same seed, same alternation), and a second
table per workload prints both sides' medians of the :data:`LAYERS` spans — each job's
map and reduce phase, and the tasks' summed busy time — and of the tasks dispatched,
the pair evaluations, shuffle, spill and broadcast bytes, so the same table shows whether
both sides computed and shipped the same, of the read-path bytes copied into private
memory, and of the driver's sketch pass and the pairs it pruned.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: the traced per-layer metrics ``--layers`` summarises, in print order
LAYERS = (
    "runtime.job1_map_s",
    "runtime.job1_reduce_s",
    "runtime.job2_map_s",
    "runtime.job2_reduce_s",
    "runtime.task_busy_s",
    "runtime.tasks_dispatched",
    "runtime.evaluations",
    "runtime.shuffle_bytes",
    "runtime.spill_bytes_written",
    "runtime.broadcast_bytes",
    "runtime.bytes_copied",
    "sketches.build_s",
    "sketches.pairs_pruned",
)


def measure(checkout: Path, workload: str, seed: int, seconds: float, trace: str = "0") -> dict:
    """One ruler run in ``checkout``; returns its last-line JSON object."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.exit(f"{checkout}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    """``median [q1, q3]`` (quartiles need four samples)."""
    median = statistics.median(values)
    if len(values) < 4:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def failed_share(runs: list[dict]) -> float:
    """Failed operations over attempted ones, summed over one side's runs."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def claim_holds(parent: list[float], change: list[float], wins: int, sign: int) -> bool:
    """≥ 9/10 of the pairs won, and the medians further apart than the parent's q3 − q1."""
    if len(parent) < 4:
        return False
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(parent) - statistics.median(change))
    return 10 * wins >= 9 * len(parent) and gain > q3 - q1


def bound_verdict(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """``worse`` / ``unresolved`` / ``ok`` under the no-regression rule (docstring above)."""
    base = statistics.median(parent)
    if base and sign * (statistics.median(change) - base) / abs(base) > bound:
        return "worse"
    if len(parent) >= 4 and base:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
        if (q3 - q1) / abs(base) > bound and not beats_all:
            return "unresolved"
    return "ok"


def layer_table(parent: list[dict], change: list[dict]) -> list[str]:
    """Rows of the ``--layers`` table: each :data:`LAYERS` span's median per side.

    ``parent`` and ``change`` are the ``--trace 1`` runs' JSON objects.  A
    span a run lacks or reads 0 (the workload has no such phase) is left
    out of that side's median, a count only when the run lacks it (0
    copied bytes is a reading); ``-`` when no run has it.  Spans print to
    four significant digits, counts in full.
    """
    rows = [f"{'layer (--trace 1)':<26}{'parent median':>16}{'change median':>16}{'change':>9}"]
    for name in LAYERS:
        span = name.endswith("_s")
        medians = []
        for runs in (parent, change):
            values = [run["metrics"].get(name, {}).get("value") for run in runs]
            values = [value for value in values if value is not None and (value or not span)]
            medians.append(statistics.median(values) if values else None)
        base, new = medians
        relative = f"{(new - base) / base:+9.1%}" if base and new is not None else f"{'-':>9}"
        form = ">16.4g" if span else ">16.15g"
        shown = [format(value, form) if value is not None else f"{'-':>16}" for value in medians]
        rows.append(f"{name:<26}{shown[0]}{shown[1]}{relative}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", action="append", dest="workloads", metavar="W")
    which.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=300)
    parser.add_argument("--layers", action="store_true",
                        help="also run --trace 1 per side per pair; print phase medians")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [workload["name"] for workload in spec["workloads"]]
    problems = [problem for w in workloads for problem in compare(args, spec, w)]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def compare(args: argparse.Namespace, spec: dict, workload: str) -> list[str]:
    """Run and print one workload's pairs; returns what rejects the change there."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    traced: dict[str, list[dict]] = {"parent": [], "change": []}
    sides = {"parent": args.parent, "change": args.change}
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            seed = args.seed0 + pair
            runs[side].append(measure(sides[side], workload, seed, spec["run_seconds"]))
            if args.layers:
                traced[side].append(
                    measure(sides[side], workload, seed, spec["run_seconds"], trace="1")
                )
        print(f"{workload}: pair {pair}/{args.pairs} done", file=sys.stderr)

    failed, attempted = (
        {side: sum(run[key] for run in results) for side, results in runs.items()}
        for key in ("failed", "attempted")
    )
    share = {side: failed_share(results) for side, results in runs.items()}
    print(f"{workload}: {args.pairs} pairs, seeds {args.seed0 + 1}..{args.seed0 + args.pairs}; "
          f"failed operations parent {failed['parent']}/{attempted['parent']} "
          f"({share['parent']:.2%}), change {failed['change']}/{attempted['change']} "
          f"({share['change']:.2%})")
    print(f"{'metric':<22}{'parent median [q1, q3]':<34}{'change median [q1, q3]':<34}"
          f"{'change':>9}  {'wins':<7}{'claim':<7}bound")
    problems = []
    if share["change"] > share["parent"]:
        problems.append(f"{workload}: a larger share of the change's operations failed")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        base = statistics.median(parent)
        relative = (statistics.median(change) - base) / base if base else float("nan")
        claim = "holds" if claim_holds(parent, change, wins, sign) else "no"
        verdict = bound_verdict(parent, change, sign, metric["bound"])
        if verdict == "worse":
            problems.append(f"{workload}: {name} worse than its bound {metric['bound']:.0%}")
        print(f"{name:<22}{spread(parent):<34}{spread(change):<34}{relative:>+9.1%}  "
              f"{f'{wins}/{args.pairs}':<7}{claim:<7}{verdict}")
    if args.layers:
        print()
        print("\n".join(layer_table(traced["parent"], traced["change"])))
    print(flush=True)
    return problems


if __name__ == "__main__":
    sys.exit(main())
