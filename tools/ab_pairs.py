#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark workloads, summarised per metric.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR (--workload W [--workload W2 ...] | --all)
                              [--pairs 10] [--seed0 300]

``--all`` takes every workload the change's ``BENCHMARK.json`` declares — the "nothing
got worse on any workload" half of a claim in one command.

For each workload, and pair i (seed ``seed0 + i``), runs ``benchmarks/e2e/run.py
--workload W --seed S --seconds 10 --trace 0`` once in each checkout — the parent first
on odd pairs, the change first on even ones — and reads the JSON on the run's last
stdout line.  Prints one table per workload, per end-to-end metric of the change's
``BENCHMARK.json``: both medians with quartiles, the relative change, and in how many
pairs the change read better (ties count for neither).  Exits 1 when, on any workload,
the change reported more failed operations than the parent: a gain does not count then.
A driver for the ruler, not a second benchmark: it measures nothing itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def measure(checkout: Path, workload: str, seed: int) -> dict:
    """One ruler run in ``checkout``; returns its last-line JSON object."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "10", "--trace", "0"]
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", action="append", dest="workloads", metavar="W")
    which.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=300)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [workload["name"] for workload in spec["workloads"]]
    more_failures = [w for w in workloads if not compare(args, spec, w)]
    if more_failures:
        print(f"change failed more operations than parent on: {', '.join(more_failures)}")
    return 1 if more_failures else 0


def compare(args: argparse.Namespace, spec: dict, workload: str) -> bool:
    """Run and print one workload's pairs; False when the change failed more operations."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    sides = {"parent": args.parent, "change": args.change}
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            runs[side].append(measure(sides[side], workload, args.seed0 + pair))
        print(f"{workload}: pair {pair}/{args.pairs} done", file=sys.stderr)

    failed, attempted = (
        {side: sum(run[key] for run in results) for side, results in runs.items()}
        for key in ("failed", "attempted")
    )
    print(f"{workload}: {args.pairs} pairs, seeds {args.seed0 + 1}..{args.seed0 + args.pairs}; "
          f"failed operations parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}")
    print(f"{'metric':<22}{'parent median [q1, q3]':<34}{'change median [q1, q3]':<34}"
          f"{'change':>9}  wins")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        base = statistics.median(parent)
        relative = (statistics.median(change) - base) / base if base else float("nan")
        print(f"{name:<22}{spread(parent):<34}{spread(change):<34}{relative:>+9.1%}  "
              f"{wins}/{args.pairs}")
    print(flush=True)
    return failed["change"] <= failed["parent"]


if __name__ == "__main__":
    sys.exit(main())
