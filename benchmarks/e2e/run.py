#!/usr/bin/env python3
"""End-to-end pairwise benchmark: five workloads, end-to-end metrics, layer probes.

Three ways in:

``run.py [--seed N] [--workload NAME] [--out FILE] [--smoke]``
    the full set: every workload in a fresh child process, all end-to-end
    and per-layer metrics printed by name with units, one JSON result.
``run.py --workload NAME --seed N --seconds S --trace 0|1``
    one measured run in this process; the last stdout line is one JSON
    object (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer).
``run.py compare A.json B.json`` / ``run.py --selftest``
    apply the bounds in ``BENCHMARK.json`` to two result files / run the
    smoke set twice and check names, units and exact counts.

Load model: closed loop, one client, one job in flight.  Order inside a
measured run: generate inputs and references (untimed) → set-up (scheme,
engine, warm-up) → timed runs with tracing off → engine closed (CPU and
peak RSS read here) → one traced run → layer probes and variants.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH_BASE = ROOT / ".e2e_scratch"

sys.path.insert(0, str(ROOT / "src"))

MIN_REPS = 5  #: timed runs per measured run, whatever the time budget says
MAX_REPS = 300
SETUP_CYCLES = 3  #: set-up is repeated and its median reported
SETUP_ABS_SLACK_S = 0.25  #: compare: set-up may always move by this much
DEFAULT_SEED = 11

#: per-layer metrics that must repeat exactly between two runs of one commit
#: on one seed (``comm_bytes_per_pair`` is the end-to-end one)
EXACT_COUNTS = (
    "scheme.tasks",
    "scheme.replication_factor",
    "scheme.replication_vs_bound",
    "scheme.max_working_set_bytes",
    "cost_model.comm_records_ratio",
    "serialization.encoded_bytes",
    "shuffle.records",
    "spill.bytes",
    "extsort.runs",
    "kernels.pairs",
    "sketches.bytes",
    "sketches.pairs_pruned",
    "sketches.prune_ratio",
    "aggregate.copies",
    "runtime.tasks_dispatched",
    "runtime.task_attempts",
    "runtime.task_retries",
    "runtime.evaluations",
    "runtime.shuffle_bytes",
    "runtime.shuffle_bytes_vs_floor",
    "runtime.dispatch_bytes",
    "runtime.broadcast_bytes",
    "runtime.driver_bytes",
    "runtime.spill_bytes_written",
)

#: the layer walk's spans, in the order a job meets the layers
WALK_SPANS = (
    "scheme.enumerate_s",
    "serialization.size_s",
    "shuffle.partition_s",
    "serialization.encode_s",
    "spill.write_s",
    "spill.read_s",
    "serialization.decode_s",
    "shuffle.sort_group_s",
    "extsort.sort_s",
    "sketches.build_s",
    "sketches.prune_s",
    "kernels.index_s",
    "kernels.eval_s",
    "core.results_s",
    "aggregate.merge_s",
    "core.assemble_s",
)
#: of those, what a serial run never executes: it neither encodes nor spills
POOLED_ONLY_SPANS = frozenset(
    ("serialization.encode_s", "spill.write_s", "spill.read_s", "serialization.decode_s", "extsort.sort_s")
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def machine_stamp() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def become_subreaper() -> None:
    """Make orphaned descendants re-parent to this process, not to init.

    With it, :func:`stop_children` also sees what a pool worker started.
    Linux only; elsewhere direct children are still stopped.
    """
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Every live or unreaped process whose parent is this one (from /proc)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we were listing
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process still under this one and wait until each has ended.

    Runs on every path out of ``run.py``.  Closed engines have reaped their
    own workers by now; what is left is multiprocessing's resource tracker
    (the program starts one with its first shared-memory segment, and it
    would outlive this process by a moment) and whatever a failed run
    stranded.  The tracker ignores SIGTERM and ends when its pipe closes;
    anything still there after ``grace_s`` is killed.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    alive_fd = getattr(tracker, "_fd", None)
    if alive_fd is not None:
        os.close(alive_fd)
        tracker._fd = None
    for signum in (signal.SIGTERM, signal.SIGKILL, signal.SIGKILL):
        for pid in child_pids():
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return  # no child left, ended or not
            if pid == 0:
                time.sleep(0.01)


def summarize(samples: list[float]) -> dict:
    """Median, extremes and quartiles; no percentile the count cannot support."""
    summary = {
        "n": len(samples),
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
    }
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        summary["q1"], summary["q3"] = q1, q3
    return summary


class SpeedProbe:
    """Machine-speed calibration: a fixed pure-Python loop, timed now and then.

    The boxes this runs on drift in speed by tens of percent over tens of
    seconds (shared hosts), which no median over a 10 s window removes.  A
    fixed loop timed next to each run tracks that drift; a timing is then
    scaled by ``REFERENCE_S / loop seconds`` — it reads as seconds on a
    machine that runs the loop in ``REFERENCE_S``.  The loop is benchmark
    code: nothing the program under test does can make it faster.
    """

    ITERATIONS = 1_500_000
    REFERENCE_S = 0.085  #: the loop's time on the box the benchmark was built on
    MIN_GAP_S = 1.0  #: short jobs share one sample per this many seconds

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when taken, loop seconds)
        self.cpu = 0.0  #: CPU the loop itself has burnt (kept out of ``cpu_s``)

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and self.samples and start - self.samples[-1][0] < self.MIN_GAP_S:
            return
        total = 0
        for i in range(self.ITERATIONS):
            total += i * i
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self.cpu += end - start

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: the samples nearest before and after it."""
        before = [seconds for when, seconds in self.samples if when <= start]
        after = [seconds for when, seconds in self.samples if when >= end]
        nearest = before[-1:] + after[:1]
        return self.REFERENCE_S / statistics.mean(nearest)


class Run:
    """One measured run of one workload in this process."""

    def __init__(self, workload: Any, seed: int, seconds: float, mode: str):
        import check

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.mode = mode  # "0": end-to-end, "1": per-layer, "both"
        self.ops = check.Operations()
        self.audit: list[str] = []  #: ledger / leak findings, recorded as one closing operation
        self.check_cpu = 0.0
        self.speed = SpeedProbe()

    # -- jobs ----------------------------------------------------------------------
    def job(self, scheme: Any, engine: Any, trace_sink: Any = None) -> float:
        """Submit one job, verify it, count the operation; returns its raw wall."""
        start = time.perf_counter()
        try:
            output = self.workload.submit(self.inputs, scheme, engine, trace_sink)
        except Exception as exc:  # the operation failed; keep measuring the rest
            self.ops.record(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        cpu = time.process_time()
        self.ops.record(self.workload.verify(output, self.reference))
        self.check_cpu += time.process_time() - cpu
        return elapsed

    def jobs(
        self, scheme: Any, engine: Any, *, floor: int, budget: float = 0.0, trace_sink: Any = None
    ) -> tuple[list[float], list[float]]:
        """Jobs back to back until ``floor`` runs and ``budget`` seconds are in.

        Returns ``(walls, raw_walls)``: each wall scaled by the speed samples
        taken around it, and as the clock read it.
        """
        self.speed.sample(force=True)
        spans = []
        deadline = time.perf_counter() + budget
        while len(spans) < MAX_REPS and (len(spans) < floor or time.perf_counter() < deadline):
            start = time.perf_counter()
            spans.append((start, start + self.job(scheme, engine, trace_sink)))
            self.speed.sample()
        self.speed.sample(force=True)
        raw = [end - start for start, end in spans]
        return [(end - start) * self.speed.factor(start, end) for start, end in spans], raw

    # -- phases --------------------------------------------------------------------
    def measure(self) -> dict:
        import check

        workload = self.workload
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_BASE))
        tempfile.tempdir = str(scratch)  # engines, spills and sorters land here
        before = check.residue(scratch)
        try:
            result = self.phases(scratch)
            leaked = check.leaks(scratch, before)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        result["leaks"] = leaked
        # One closing audit operation: the conservation ledger and the leak scan.
        self.ops.record("; ".join(self.audit + leaked) or None)
        result["attempted"] = self.ops.attempted
        result["failed"] = self.ops.failed
        result["failures"] = self.ops.failures[:10]
        result["e2e"]["error_rate"] = self.ops.error_rate
        return result

    def phases(self, scratch: Path) -> dict:
        workload = self.workload
        self.inputs = workload.inputs(self.seed)
        self.reference = workload.reference(self.inputs)
        # The benchmark's own long-lived data must not drive the collector
        # while the program under test runs in this process.
        gc.collect()
        gc.freeze()

        # Set-up: scheme construction + engine start + warm-up run(s).
        setup_samples = []
        engine = None
        try:
            for _ in range(1 if self.mode == "1" else SETUP_CYCLES):
                if engine is not None:
                    engine.close()  # reaps the previous cycle's workers
                self.check_cpu = 0.0
                window_start, cpu_start = time.perf_counter(), cpu_seconds() - self.speed.cpu
                scheme = workload.scheme()
                engine = workload.engine()
                built = time.perf_counter() - window_start
                walls, _raw = self.jobs(scheme, engine, floor=workload.warmups)
                setup_samples.append(built + sum(walls))

            walls, raw = self.jobs(
                scheme,
                engine,
                floor=3 if self.mode == "1" else MIN_REPS,
                budget=self.seconds / 2 if self.mode == "1" else self.seconds,
            )
        finally:
            if engine is not None:
                engine.close()
        window_end = time.perf_counter()
        cpu_raw = (cpu_seconds() - self.speed.cpu - cpu_start - self.check_cpu) / (
            workload.warmups + len(walls)
        )
        rss = peak_rss_mib()
        wall = statistics.median(walls)

        traced = self.traced_run(scheme, scratch)
        comm_bytes = (
            traced["trace"]["runtime.shuffle_bytes"]
            + traced["stats"].get("broadcast_bytes", 0)
            + traced["stats"].get("shm_bytes", 0)
        )
        in_window = [s for when, s in self.speed.samples if window_start <= when <= window_end]
        result: dict[str, Any] = {
            "workload": workload.name,
            "seed": self.seed,
            "smoke": workload.smoke,
            "comparable": not workload.smoke,
            "sizes": workload.sizes,
            "pairs": workload.pairs,
            "machine": machine_stamp(),
            "wall_samples": summarize(walls),
            "wall_raw_samples": summarize(raw),
            "setup_samples": summarize(setup_samples),
            "speed_probe_s": summarize([seconds for _when, seconds in self.speed.samples]),
            "e2e": {
                "wall_s": wall,
                "pairs_per_s": workload.pairs / wall,
                "cpu_s": cpu_raw * SpeedProbe.REFERENCE_S / statistics.mean(in_window),
                "peak_rss_mb": rss,
                "comm_bytes_per_pair": comm_bytes / workload.pairs,
                "setup_s": statistics.median(setup_samples),
            },
        }
        if workload.pooled and (os.cpu_count() or 1) < 2:
            result["unverifiable"] = ["wall_s", "pairs_per_s"]  # no second core to pool on
        if self.mode != "0":
            try:
                result.update(self.layers(scheme, scratch, walls, statistics.median(raw), traced))
            except Exception as exc:  # probes report what they cannot reach; they never fail the run
                result.update(
                    per_layer={},
                    not_applicable=[],
                    probes_missing=[f"per-layer section stopped: {type(exc).__name__}: {exc}"],
                    layer_spans=[],
                )
        return result

    def traced_run(self, scheme: Any, scratch: Path) -> dict:
        """One job on a fresh engine with the JSONL trace sink attached.

        Separate from the timed runs.  A pooled engine first gets a warm-up
        when the trace's timings are used (``--trace 0`` only needs its
        byte counts).
        """
        import probes
        from repro.mapreduce.controlplane import JsonlTraceSink

        workload = self.workload
        trace_path = scratch / "trace.jsonl"
        sink = JsonlTraceSink(trace_path)
        engine = workload.engine(trace_sink=sink)
        tap = probes.CounterTap(engine) if engine is not None else None
        warm = workload.pooled and self.mode != "0"
        try:
            if warm:
                self.job(scheme, tap)
                tap.totals.clear()
            before = probes.stats_snapshot(engine)
            walls, _raw = self.jobs(scheme, tap, floor=1, trace_sink=sink)
            stats = probes.stats_delta(before, probes.stats_snapshot(engine))
        finally:
            if engine is not None:
                engine.close()
            sink.close()
        trace = probes.parse_trace(trace_path, after_runs=1 if warm else 0)
        trace_path.unlink()
        if tap is None and self.mode != "0":
            # The entry point owned its engine: read the counters from one
            # more job on a tapped serial engine (counters are engine-independent).
            from repro import SerialEngine

            tap = probes.CounterTap(SerialEngine())
            self.job(scheme, tap)
        return {"wall": walls[0], "trace": trace, "stats": stats, "tap": tap}

    def layers(
        self, scheme: Any, scratch: Path, walls: list[float], raw_wall: float, traced: dict
    ) -> dict:
        """Per-layer metrics: scheme row, layer walk, trace, counters, variants."""
        import check
        import probes

        workload = self.workload
        wall = statistics.median(walls)
        values: dict[str, Any] = {}
        missing: list[str] = []

        scheme_values, scheme_missing = probes.scheme_metrics(
            lambda: workload.job_scheme(self.inputs)
        )
        values.update(scheme_values)
        missing += scheme_missing

        plan = workload.plan(self.inputs, workload.job_scheme(self.inputs))
        walk = probes.LayerWalk(plan, scratch, f"{workload.name}-seed{self.seed}")
        walk.collect()
        values.update(walk.values)
        missing += walk.missing

        values.update(traced["trace"])
        values.update(probes.tap_metrics(traced["tap"], plan.scheme))
        for field, metric in probes.STATS_METRICS.items():
            values[metric] = traced["stats"].get(field, 0)
        if not traced["stats"]:  # serial engine: dispatches are its in-process attempts
            values["runtime.tasks_dispatched"] = values["runtime.task_attempts"]

        def make_engine() -> Any:
            engine = workload.engine()
            if engine is None:
                choose = probes.resolve("repro.mapreduce.runtime:choose_engine")
                engine = choose(plan.scheme.metrics().communication_records)
            return engine

        try:
            values["runtime.pool_start_s"] = probes.pool_start_seconds(make_engine)
        except (probes.MissingProbe, TypeError, AttributeError) as exc:
            values["runtime.pool_start_s"] = None
            missing.append(f"pool start probe: {exc}")

        values["runtime.trace_overhead_ratio"] = traced["wall"] / wall
        values["runtime.job_wall_p95_s"] = statistics.quantiles(walls, n=20)[-1]
        # The walk's spans are raw clock readings, so they are set against the
        # raw wall.  partition_with_sizes repeats the per-record sizing pass the
        # walk also times on its own; count that pass once.
        attributed = sum(
            values.get(name) or 0.0 for name in WALK_SPANS if name not in POOLED_ONLY_SPANS
        )
        attributed -= walk.record_sizing_seconds
        values["runtime.unattributed_s"] = raw_wall - attributed

        not_applicable = []
        if plan.threshold is None:
            not_applicable += [
                "sketches.build_s", "sketches.bytes", "sketches.prune_s",
                "sketches.pairs_pruned", "sketches.prune_ratio",
            ]
        else:
            pruned = values.get("sketches.pairs_pruned")
            values["sketches.prune_ratio"] = None if pruned is None else pruned / workload.pairs
            problem = check.check_ledger(values.get("runtime.evaluations"), pruned, workload.v)
            if problem is not None:
                self.audit.append(problem)
        if plan.assemble is None:
            not_applicable.append("core.assemble_s")  # the entry point returns the merged map
        if workload.pooled:
            not_applicable.append("runtime.unattributed_s")  # spans are serial sums
        if len(walls) < 20:
            not_applicable.append("runtime.job_wall_p95_s")  # too few samples to claim

        reps = 3 if self.mode == "both" else 1
        for metric in ("variant.serial_wall_ratio", "variant.shm_wall_ratio", "variant.relay_wall_ratio"):
            knobs = workload.variants.get(metric)
            if knobs is None:
                not_applicable.append(metric)
            else:
                values[metric] = self.variant(scheme, knobs, reps, wall)

        return {
            "per_layer": values,
            "not_applicable": sorted(set(not_applicable)),
            "probes_missing": missing,
            "layer_spans": walk.spans.summary(),
        }

    def variant(self, scheme: Any, knobs: dict, reps: int, baseline: float) -> float | None:
        """Median wall of the same job on a variant engine, over the baseline."""
        engine = self.workload.engine(**knobs)
        try:
            wanted = knobs.get("data_plane")
            if wanted is not None and getattr(engine, "data_plane", wanted) != wanted:
                return None  # no POSIX shm here: the engine downgraded itself
            if not knobs.get("serial"):
                self.job(scheme, engine)  # bring the variant's pool up first
            walls, _raw = self.jobs(scheme, engine, floor=reps)
        finally:
            engine.close()
        return statistics.median(walls) / baseline


# -- contract output ---------------------------------------------------------------------
def contract_line(result: dict, spec: dict, trace: str) -> str:
    """The driver's last-line JSON: declared metrics only, every one a number.

    A per-layer metric that does not apply to the workload (or whose probe
    target is gone) reads 0 here; the result file keeps it ``null``.
    """
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    source = result["e2e"] if trace == "0" else result["per_layer"]
    metrics = {}
    for metric in declared:
        value = source.get(metric["name"])
        metrics[metric["name"]] = {"value": 0 if value is None else value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_one(args: argparse.Namespace, spec: dict) -> int:
    import workloads

    workload_cls = workloads.BY_NAME.get(args.workload)
    if workload_cls is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.BY_NAME)}", file=sys.stderr)
        return 2
    SCRATCH_BASE.mkdir(exist_ok=True)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = Run(workload_cls(smoke=args.smoke), args.seed, seconds, args.trace).measure()
    try:
        SCRATCH_BASE.rmdir()  # leave nothing behind, unless another run is using it
    except OSError:
        pass
    for problem in result["failures"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.trace == "both":
        print(json.dumps(result))
    else:
        print(contract_line(result, spec, args.trace))
    return 0


# -- the full set ----------------------------------------------------------------------
def run_suite(args: argparse.Namespace, spec: dict) -> int:
    import check
    import workloads

    names = [args.workload] if args.workload else [cls.name for cls in workloads.WORKLOADS]
    seconds = args.seconds if args.seconds is not None else (1 if args.smoke else spec["run_seconds"])
    SCRATCH_BASE.mkdir(exist_ok=True)
    results = {}
    started = time.perf_counter()
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", "both",
        ] + (["--smoke"] if args.smoke else [])
        before = check.residue(SCRATCH_BASE)
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if child.returncode != 0 or not child.stdout.strip():
            print(f"{name}: child exited {child.returncode} without a result", file=sys.stderr)
            return 1
        result = json.loads(child.stdout.strip().splitlines()[-1])
        # Nothing may outlive the workload's process.
        outlived = check.leaks(SCRATCH_BASE, before)
        if outlived:
            result["leaks"] += outlived
            result["failed"] += 1
        results[name] = result
        print(f"  {name}: {result['wall_samples']['n']} timed runs, "
              f"{result['failed']}/{result['attempted']} operations failed", file=sys.stderr)
    shutil.rmtree(SCRATCH_BASE, ignore_errors=True)

    document = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "smoke": args.smoke,
        "comparable": not args.smoke,
        "seconds_per_workload": seconds,
        "suite_wall_s": time.perf_counter() - started,
        "machine": machine_stamp(),
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "workloads": results,
    }
    document["units"]["error_rate"] = "ratio"
    print(render(document, spec))
    out = Path(args.out) if args.out else HERE / "out" / ("smoke.json" if args.smoke else "result.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"\nresult written to {out}")
    return 1 if any(result["failed"] for result in results.values()) else 0


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(row[col]) for row in [header] + rows) for col in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in [header] + rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render(document: dict, spec: dict) -> str:
    """Every metric by name with its unit, plus the layer × workload share matrix."""
    results = document["workloads"]
    names = list(results)
    units = document["units"]
    parts = []
    if not document["comparable"]:
        parts.append("SMOKE SIZES - numbers are not comparable with a full run")

    rows = []
    for metric in [m["name"] for m in spec["end_to_end"]] + ["error_rate"]:
        rows.append([metric, units[metric]] + [_cell(results[n]["e2e"].get(metric)) for n in names])
    for label, key in (("wall_s n", "n"), ("wall_s min", "min"), ("wall_s max", "max"), ("wall_s q1", "q1"), ("wall_s q3", "q3")):
        rows.append([label, "count" if key == "n" else "s"] + [_cell(results[n]["wall_samples"].get(key)) for n in names])
    parts.append("End-to-end (median of the timed runs; n, extremes and quartiles below)\n"
                 + _table(["metric", "unit"] + names, rows))

    def shown(name: str, metric: str) -> Any:
        result = results[name]
        if metric in result["not_applicable"]:
            return None
        return result["per_layer"].get(metric)

    rows = [[m["name"], m["unit"]] + [_cell(shown(n, m["name"])) for n in names] for m in spec["per_layer"]]
    parts.append("Per-layer ('-' = not applicable on that workload or probe target missing)\n"
                 + _table(["metric", "unit"] + names, rows))

    rows = []
    for metric in WALK_SPANS:
        row = [metric]
        for name in names:
            total = sum(results[name]["per_layer"].get(m) or 0.0 for m in WALK_SPANS)
            value = shown(name, metric)
            row.append("-" if value is None or not total else f"{100.0 * value / total:.1f}%")
        rows.append(row)
    parts.append("Layer x workload time share (each column: share of that workload's probe spans)\n"
                 + _table(["layer span"] + names, rows))

    for name in names:
        for line in results[name]["probes_missing"]:
            parts.append(f"probe missing on {name}: {line}")
        for line in results[name].get("unverifiable", []):
            parts.append(f"unverifiable on {name} (cpu_count < 2): {line}")
    parts.append(f"machine: {document['machine']}   suite wall: {document['suite_wall_s']:.1f} s")
    return "\n\n".join(parts)


# -- compare ----------------------------------------------------------------------------
def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Apply BENCHMARK.json's bounds to B against A, one row per (metric, workload)."""
    with open(path_a, encoding="utf-8") as handle:
        side_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        side_b = json.load(handle)
    if not (side_a.get("comparable") and side_b.get("comparable")):
        print("warning: at least one side is a smoke run (comparable: false)")
    rows, bad = [], 0
    for name, a in side_a["workloads"].items():
        b = side_b["workloads"].get(name)
        if b is None:
            rows.append([name, "*", "-", "-", "-", "missing in B"])
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            old, new = a["e2e"][key], b["e2e"][key]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (new - old) / old if old else 0.0
            allowed = metric["bound"]
            if key == "setup_s" and old:
                allowed = max(allowed, SETUP_ABS_SLACK_S / old)
            status = "ok"
            if key == "comm_bytes_per_pair" and new != old:
                status = "differs"
            elif key == "wall_s":
                status = _timing_status(a["wall_samples"], b["wall_samples"], worse_by, allowed)
            elif worse_by > allowed:
                status = "regressed"
            bad += status in ("regressed", "differs")
            rows.append([name, key, _cell(old), _cell(new), f"{100 * worse_by:+.1f}%", status])
        if b["e2e"]["error_rate"] > a["e2e"]["error_rate"]:
            rows.append([name, "error_rate", _cell(a["e2e"]["error_rate"]), _cell(b["e2e"]["error_rate"]), "", "regressed"])
            bad += 1
        for key in EXACT_COUNTS:
            old, new = a.get("per_layer", {}).get(key), b.get("per_layer", {}).get(key)
            if old != new:
                rows.append([name, key, _cell(old), _cell(new), "", "differs"])
                bad += 1
    print(_table(["workload", "metric", "A", "B", "worse by", "status"], rows))
    print(f"\n{bad} regressed or differing rows" if bad else "\nno regression; every exact count matches")
    return 1 if bad else 0


def _timing_status(a: dict, b: dict, worse_by: float, allowed: float) -> str:
    """ok / regressed / unresolved for a sampled timing.

    Past the bound it is a regression only when the two sides' interquartile
    ranges are disjoint; inside the bound it is unresolved when either side's
    spread is wider than the bound, unless every B run beat every A run.
    """
    def quartiles(side: dict) -> tuple[float, float]:
        return side.get("q1", side["min"]), side.get("q3", side["max"])

    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    overlap = a1 <= b3 and b1 <= a3
    if worse_by > allowed:
        return "unresolved" if overlap else "regressed"
    noisy = max((a3 - a1) / a["median"], (b3 - b1) / b["median"]) > allowed
    if noisy and not b["max"] < a["min"]:
        return "unresolved"
    return "ok"


# -- selftest ---------------------------------------------------------------------------
def selftest(spec: dict) -> int:
    """Smoke twice; every declared metric present, exact counts identical."""
    outs = []
    for index in (1, 2):
        out = SCRATCH_BASE.parent / f".e2e_selftest_{index}.json"
        code = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
            stdout=subprocess.DEVNULL,
        ).returncode
        if code != 0:
            print(f"selftest: smoke run {index} exited {code}")
            return 1
        outs.append(out)
    documents = [json.loads(out.read_text(encoding="utf-8")) for out in outs]
    for out in outs:
        out.unlink()
    problems = []
    for name, result in documents[0]["workloads"].items():
        other = documents[1]["workloads"][name]
        for metric in spec["end_to_end"]:
            if not isinstance(result["e2e"].get(metric["name"]), (int, float)):
                problems.append(f"{name}: end-to-end metric {metric['name']} not emitted")
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key not in result["per_layer"] and key not in result["not_applicable"]:
                problems.append(f"{name}: per-layer metric {key} not emitted")
            if documents[0]["units"].get(key) != metric["unit"]:
                problems.append(f"{key}: unit {documents[0]['units'].get(key)!r} != {metric['unit']!r}")
        if result["e2e"]["comm_bytes_per_pair"] != other["e2e"]["comm_bytes_per_pair"]:
            problems.append(f"{name}: comm_bytes_per_pair differs between the two runs")
        for key in EXACT_COUNTS:
            if result["per_layer"].get(key) != other["per_layer"].get(key):
                problems.append(
                    f"{name}: count {key} differs: {result['per_layer'].get(key)} vs {other['per_layer'].get(key)}"
                )
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload by name (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="feeds the input generators only")
    parser.add_argument("--seconds", type=float, help="timed-run budget per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", choices=("0", "1", "both"), help="measure in this process and print one JSON line")
    parser.add_argument("--out", help="where the full set writes its JSON result")
    parser.add_argument("--smoke", action="store_true", help="~1/10 sizes; output stamped comparable: false")
    parser.add_argument("--selftest", action="store_true", help="smoke twice, check names, units and exact counts")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 3
    if args.selftest:
        return selftest(spec)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    become_subreaper()
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    finally:
        stop_children()
    sys.exit(code)
