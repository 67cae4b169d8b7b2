"""Per-layer probes: spans around direct calls into each layer, and trace parsing.

Three sources feed the per-layer metrics:

- **the layer walk** (:class:`LayerWalk`): the benchmark calls each layer's
  public functions itself, on the workload's own inputs, in the order a job
  runs them — distribute (leg 1) → compute → distribute (leg 2) → aggregate —
  and records one span per call under a single run id;
- **the traced run**: the engine's ``trace_sink`` JSONL (:func:`parse_trace`)
  gives phase walls, task spans and byte events;
- **job counters**, read by a :class:`CounterTap` wrapped around the engine
  the entry point is given.

Every probe target is looked up by name when it is needed.  A target that
is gone (renamed, deleted) or that no longer accepts the call yields
``None`` for its metric and a line in ``missing`` — never a failed run.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from workloads import Plan


class MissingProbe(LookupError):
    """A probe target could not be resolved by name."""


def resolve(path: str) -> Any:
    """``"pkg.module:attr.sub"`` → the object; :class:`MissingProbe` if gone."""
    module_name, _, attrs = path.partition(":")
    try:
        target = importlib.import_module(module_name)
        for attr in attrs.split("."):
            target = getattr(target, attr)
    except (ImportError, AttributeError) as exc:
        raise MissingProbe(f"{path}: {exc}") from exc
    return target


class CounterTap:
    """Engine stand-in that forwards every call and keeps the job counters.

    The app entry points return assembled results only; the counters of the
    jobs they ran (evaluations, pairs pruned, shuffle records, working-set
    gauge, spill runs) stay inside.  Wrapping the engine the caller passes
    in reads them without changing the path the run takes.
    """

    def __init__(self, engine: Any):
        self._engine = engine
        self.totals: dict[tuple[str, str], int] = defaultdict(int)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def _keep(self, results: list) -> None:
        for result in results:
            for group, name, value in result.counters.items():
                if name.startswith("max_"):
                    self.totals[group, name] = max(self.totals[group, name], value)
                else:
                    self.totals[group, name] += value

    def run(self, job: Any, *args: Any, **kwargs: Any) -> Any:
        result = self._engine.run(job, *args, **kwargs)
        self._keep([result])
        return result

    def run_chain(self, jobs: Any, *args: Any, **kwargs: Any) -> list:
        results = self._engine.run_chain(jobs, *args, **kwargs)
        self._keep(results)
        return results

    def get(self, group: str, name: str) -> int:
        return self.totals.get((group, name), 0)


class Spans:
    """In-memory span log for one probe run; durations aggregate by name."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.log: list[dict] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.seconds[name] += end - start
            self.log.append(
                {"run": self.run_id, "name": name, "parent": parent, "start": start, "end": end}
            )

    def summary(self) -> list[dict]:
        """The log folded per (name, parent): what is written out with the result.

        The full log has one span per call (thousands on a 300-task job);
        the written form keeps the count, the busy seconds and the first
        start / last end of each kind of span.
        """
        folded: dict[tuple[str, str | None], dict] = {}
        for entry in self.log:
            row = folded.setdefault(
                (entry["name"], entry["parent"]),
                {"run": self.run_id, "name": entry["name"], "parent": entry["parent"],
                 "count": 0, "seconds": 0.0, "start": entry["start"], "end": entry["end"]},
            )
            row["count"] += 1
            row["seconds"] += entry["end"] - entry["start"]
            row["start"] = min(row["start"], entry["start"])
            row["end"] = max(row["end"], entry["end"])
        return list(folded.values())


class LayerWalk:
    """Walk one job through the layers by hand and time every call.

    ``values`` ends up holding the walk's metrics (``None`` where a target
    was missing), ``missing`` the reasons.
    """

    #: metric → the layer function whose calls the span brackets
    TARGETS = {
        "serialization.size_s": "repro.mapreduce.serialization:record_size",
        "shuffle.partition_s": "repro.mapreduce.shuffle:partition_with_sizes",
        "serialization.encode_s": "repro.mapreduce.serialization:encode_records",
        "spill.write_s": "repro.mapreduce.serialization:write_spill_chunk",
        "spill.read_s": "repro.mapreduce.serialization:read_spill_chunk",
        "serialization.decode_s": "repro.mapreduce.serialization:decode_records",
        "shuffle.sort_group_s": "repro.mapreduce.shuffle:sort_and_group",
        "extsort.sort_s": "repro.mapreduce.extsort:ExternalSorter",
        "kernels.index_s": "repro.kernels:pair_index_array",
        "kernels.eval_s": "repro.kernels:resolve_kernel",
        "core.results_s": "repro.core.element:Element",
        "sketches.build_s": "repro.sketches:build_sketches",
        "sketches.prune_s": "repro.sketches:ThresholdPruner",
    }

    def __init__(self, plan: Plan, scratch: Path, run_id: str):
        self.plan = plan
        self.scratch = scratch
        self.spans = Spans(run_id)
        self.values: dict[str, Any] = {}
        self.missing: list[str] = []
        self._targets: dict[str, Any] = {}
        for metric, path in self.TARGETS.items():
            try:
                self._targets[metric] = resolve(path)
            except MissingProbe as exc:
                self.missing.append(str(exc))
        self.encoded_bytes = 0
        #: part of ``serialization.size_s`` that ``shuffle.partition_s`` repeats
        self.record_sizing_seconds = 0.0
        self.largest_partition: list = []
        self._largest_bytes = -1

    def _fn(self, metric: str) -> Any:
        return self._targets.get(metric)

    # -- one shuffle leg -------------------------------------------------------------
    def _leg(self, records: list, num_partitions: int) -> list[list[tuple[Any, list]]]:
        """Size → partition → encode → spill → read → decode → sort/group.

        Returns each partition's ``(key, values)`` groups, decoded from the
        spill file like a pooled reducer would see them.  A missing codec
        or spill function drops only its own span: the records then flow on
        undecoded.
        """
        span = self.spans.span
        record_size, partition = self._fn("serialization.size_s"), self._fn("shuffle.partition_s")
        encode, decode = self._fn("serialization.encode_s"), self._fn("serialization.decode_s")
        write, read = self._fn("spill.write_s"), self._fn("spill.read_s")
        sort_and_group = self._fn("shuffle.sort_group_s")

        if record_size is not None:
            start = time.perf_counter()
            with span("serialization.size_s"):
                for key, value in records:
                    record_size(key, value)
            if partition is not None:
                self.record_sizing_seconds += time.perf_counter() - start
        if partition is not None:
            # partition_with_sizes sizes every record again itself; that inner
            # sizing is part of this span (the engine pays it exactly once,
            # here), so the two spans overlap by one record_size pass.
            with span("shuffle.partition_s"):
                partitions, sizes = partition(records, num_partitions)
        else:
            partitions, sizes = [records], [0]

        grouped = []
        for index, part in enumerate(partitions):
            if sizes[index] > self._largest_bytes:
                self._largest_bytes, self.largest_partition = sizes[index], part
            if encode is not None and decode is not None and part:
                with span("serialization.encode_s"):
                    chunk = encode(part)
                self.encoded_bytes += len(chunk)
                source: Any = chunk
                if write is not None and read is not None:
                    path = self.scratch / f"probe-{index:05d}.spill"
                    with span("spill.write_s"):
                        write(path, chunk)
                    del chunk
                    with span("spill.read_s"):
                        source = read(path)
                    os.unlink(path)  # the mapping keeps the pages alive
                with span("serialization.decode_s"):
                    part = decode(source)
            if sort_and_group is not None:
                with span("shuffle.sort_group_s"):
                    grouped.append([(key, list(values)) for key, values in sort_and_group(part)])
            else:
                by_key: dict = defaultdict(list)
                for key, value in part:
                    by_key[key].append(value)
                grouped.append(sorted(by_key.items()))
        return grouped

    # -- the walk ----------------------------------------------------------------------
    def run(self) -> None:
        plan, span = self.plan, self.spans.span
        scheme, payloads = plan.scheme, plan.payloads
        v = len(payloads)
        element_cls = self._fn("core.results_s")
        record_size = self._fn("serialization.size_s")
        if element_cls is None:
            self.missing.append("walk skipped: repro.core.element:Element is gone")
            return
        # PairwiseComputation's own default reducer count.
        num_partitions = max(1, scheme.num_tasks // 8)
        store = {eid: payload for eid, payload in enumerate(payloads, start=1)}

        # Distribute, leg 1: the map phase replicates each element per working set.
        with span("distribute"):
            with span("scheme.enumerate_s"):
                memberships = [(eid, scheme.get_subsets(eid)) for eid in range(1, v + 1)]
            if plan.cached:
                leg1 = [(subset, eid) for eid, subsets in memberships for subset in subsets]
            else:
                leg1 = [
                    (subset, element_cls(eid, store[eid]))
                    for eid, subsets in memberships
                    for subset in subsets
                ]
            working_sets = self._leg(leg1, num_partitions)

        # The sketch spans open on every workload, so a job without a pruner
        # reports the (near-zero) time it spends finding that out.
        suite = pruner = None
        build, pruner_cls = self._fn("sketches.build_s"), self._fn("sketches.prune_s")
        with span("sketches.build_s"):
            if plan.threshold is not None and build is not None and pruner_cls is not None:
                kind = resolve("repro.sketches:sketch_kind_for_comp")(plan.comp)
                # Sound mode never consults MinHash (PairwiseComputation
                # passes num_hashes=0 for it too).
                suite = build(store, kind, num_hashes=0)
                pruner = pruner_cls(plan.threshold, keep_below=False)
                self.values["sketches.bytes"] = suite.nbytes

        # Compute: per working set, index → prune → kernel → per-result bookkeeping.
        index_pairs, resolve_kernel = self._fn("kernels.index_s"), self._fn("kernels.eval_s")
        evaluated = 0
        leg2: list = []
        with span("compute"):
            for partition_groups in working_sets:
                sized: set[int] = set()
                for subset, members in partition_groups:
                    if plan.cached:
                        elements = None
                        member_ids = sorted(members)
                        local = store
                        results = {eid: {} for eid in member_ids}
                    else:
                        elements = {element.eid: element for element in members}
                        member_ids = sorted(elements)
                        local = {eid: element.payload for eid, element in elements.items()}
                    if record_size is not None:
                        # The compute reducers size each working-set member
                        # once per reduce task (the MAX_WORKING_SET_BYTES gauge).
                        with span("serialization.size_s"):
                            for eid in member_ids:
                                if eid not in sized:
                                    sized.add(eid)
                                    record_size(eid, local[eid] if plan.cached else elements[eid])
                    with span("scheme.enumerate_s"):
                        pairs = scheme.get_pairs(subset, member_ids)
                    with span("sketches.prune_s"):
                        if pruner is not None and pairs and index_pairs is not None:
                            keep = pruner.keep_mask(suite, index_pairs(pairs))
                            pairs = [pair for pair, flag in zip(pairs, keep) if flag]
                    if pairs and index_pairs is not None and resolve_kernel is not None:
                        with span("kernels.index_s"):
                            block = index_pairs(pairs)
                        with span("kernels.eval_s"):
                            kernel = resolve_kernel(plan.kernel, plan.comp, local[pairs[0][0]])
                            forward = kernel.evaluate_block(local, block)
                        evaluated += len(pairs)
                        with span("core.results_s"):
                            if plan.cached:
                                for (i, j), value in zip(pairs, forward):
                                    results[i][j] = value
                                    results[j][i] = value
                            else:
                                for (i, j), value in zip(pairs, forward):
                                    elements[i].add_result(j, value)
                                    elements[j].add_result(i, value)
                    leg2.extend(
                        (eid, results[eid] if plan.cached else elements[eid]) for eid in member_ids
                    )
        self.values["kernels.pairs"] = evaluated
        eval_s = self.spans.seconds.get("kernels.eval_s")
        self.values["kernels.pairs_per_s"] = evaluated / eval_s if eval_s else None

        # Distribute, leg 2: copies (or partial result maps) regroup by element id.
        with span("distribute"):
            copies = self._leg(leg2, num_partitions)
        self.values["aggregate.copies"] = len(leg2)
        self.values["serialization.encoded_bytes"] = self.encoded_bytes

        # Aggregate: fuse each element's copies with the workload's aggregator,
        # then whatever the entry point does to the merged map before returning.
        merged = {}
        with span("aggregate"):
            for partition_groups in copies:
                for eid, group in partition_groups:
                    if plan.cached:
                        with span("core.results_s"):
                            element = element_cls(eid, store[eid])
                            for partial in group:
                                for partner, value in partial.items():
                                    element.add_result(partner, value)
                        group = [element]
                    with span("aggregate.merge_s"):
                        merged[eid] = plan.aggregator(group)
            with span("core.assemble_s"):
                if plan.assemble is not None:
                    plan.assemble(merged)

        # External sort over the largest partition seen, at the engine's own
        # budget: below it the sorter never spills, exactly like the engine.
        sorter_cls = self._fn("extsort.sort_s")
        if sorter_cls is not None and self.largest_partition:
            budget = resolve("repro.mapreduce.tasks:DEFAULT_SPILL_THRESHOLD_BYTES")
            run_dir = self.scratch / "probe-extsort"
            try:
                with span("extsort.sort_s"):
                    with sorter_cls(memory_budget=budget, spill_dir=run_dir) as sorter:
                        sorter.add_all(self.largest_partition)
                        for _record in sorter.sorted_records():
                            pass
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)

    def collect(self) -> None:
        """Run the walk; fold span totals into ``values`` (None where absent)."""
        try:
            self.run()
        except MissingProbe as exc:
            self.missing.append(str(exc))
        except Exception as exc:  # a probe target changed shape: report, don't fail the run
            self.missing.append(f"layer walk stopped: {type(exc).__name__}: {exc}")
        for metric in (*self.TARGETS, "scheme.enumerate_s", "aggregate.merge_s", "core.assemble_s"):
            self.values[metric] = self.spans.seconds.get(metric)


def scheme_metrics(make_scheme: Callable[[], Any]) -> tuple[dict, list[str]]:
    """Build the scheme under a timer and read its analytic Table-1 row."""
    values: dict[str, Any] = dict.fromkeys(
        ("scheme.build_s", "scheme.tasks", "scheme.replication_factor", "scheme.replication_vs_bound")
    )
    missing: list[str] = []
    try:
        start = time.perf_counter()
        scheme = make_scheme()
        values["scheme.build_s"] = time.perf_counter() - start
        values["scheme.tasks"] = scheme.num_tasks
        values["scheme.replication_factor"] = scheme.metrics().replication_factor
        values["scheme.replication_vs_bound"] = scheme.replication_report().optimality_ratio
    except (MissingProbe, AttributeError, TypeError) as exc:
        missing.append(f"scheme probe: {type(exc).__name__}: {exc}")
    return values, missing


def pool_start_seconds(make_engine: Callable[[], Any]) -> float:
    """Engine construction plus a no-op two-task job: what a pool costs to bring up.

    The pooled engine forks its workers on the first task batch; a serial
    engine has nothing to start, so the same span measures microseconds.
    """
    job_cls = resolve("repro.mapreduce.job:Job")
    start = time.perf_counter()
    engine = make_engine()
    try:
        engine.run(job_cls(name="e2e-pool-start", reducer=None, num_reducers=0), [(0, 0), (1, 1)], num_map_tasks=2)
        return time.perf_counter() - start
    finally:
        engine.close()


def parse_trace(path: Path, *, after_runs: int = 0) -> dict[str, Any]:
    """Runtime metrics of one traced job from the engine's JSONL trace.

    ``after_runs`` skips that many leading jobs in the file (a pooled
    engine's warm-up run shares the sink); a job ends at its
    ``ReplicationMeasured`` event.
    """
    events, task_spans = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            (events if "type" in row else task_spans).append(row)
    boundary = -1.0
    if after_runs:
        ends = [e["time"] for e in events if e["type"] == "ReplicationMeasured"]
        boundary = ends[after_runs - 1]
    events = [e for e in events if e["time"] > boundary]
    task_spans = [s for s in task_spans if s["start"] >= boundary]

    phases: list[dict] = []
    for event in events:
        if event["type"] != "PhaseMarker":
            continue
        if event["state"] == "started":
            phases.append({"job": event["job"], "kind": event["kind"], "start": event["time"], "end": None})
        else:
            for phase in reversed(phases):
                if phase["job"] == event["job"] and phase["kind"] == event["kind"] and phase["end"] is None:
                    phase["end"] = event["time"]
                    break
    jobs = list(dict.fromkeys(phase["job"] for phase in phases))

    def phase(job_index: int, kind: str) -> dict | None:
        if job_index >= len(jobs):
            return None
        for candidate in phases:
            if candidate["job"] == jobs[job_index] and candidate["kind"] == kind:
                return candidate
        return None

    def duration(found: dict | None) -> float | None:
        return None if found is None or found["end"] is None else found["end"] - found["start"]

    out: dict[str, Any] = {
        "runtime.job1_map_s": duration(phase(0, "map")),
        "runtime.job1_reduce_s": duration(phase(0, "reduce")),
        "runtime.job2_reduce_s": duration(phase(1, "reduce")),
    }
    # Job 2's map side is whatever separates the two reduce waves: an
    # identity map phase on the serial engine, the fused hand-over (no map
    # tasks at all) on the pooled one.
    first_reduce, second_reduce = phase(0, "reduce"), phase(1, "reduce")
    out["runtime.job2_map_s"] = (
        second_reduce["start"] - first_reduce["end"]
        if first_reduce and second_reduce and first_reduce["end"] is not None
        else None
    )

    busy = sum(span["end"] - span["start"] for span in task_spans)
    slots = len({span["slot"] for span in task_spans}) or 1
    wall = max((p["end"] for p in phases if p["end"] is not None), default=0.0) - min(
        (p["start"] for p in phases), default=0.0
    )
    out["runtime.task_busy_s"] = busy
    out["runtime.slot_busy_ratio"] = busy / (slots * wall) if wall > 0 else None
    # Phases are barriers, so the critical path is each phase's longest task.
    critical = 0.0
    for found in phases:
        inside = [
            span["end"] - span["start"]
            for span in task_spans
            if found["end"] is not None and found["start"] <= span["start"] <= found["end"]
        ]
        critical += max(inside, default=0.0)
    out["runtime.critical_path_s"] = critical

    transitions = [e for e in events if e["type"] == "AttemptTransition"]
    out["runtime.task_attempts"] = sum(1 for e in transitions if e["state"] == "DISPATCHED")
    out["runtime.task_retries"] = sum(
        1 for e in transitions if e["state"] in ("FAILED", "TIMED_OUT")
    )
    out["spill.bytes"] = sum(e["num_bytes"] for e in events if e["type"] == "SpillWritten")
    measured = [e for e in events if e["type"] == "ReplicationMeasured"]
    out["runtime.shuffle_bytes"] = measured[-1]["shuffle_bytes"] if measured else None
    out["runtime.shuffle_bytes_vs_floor"] = (
        measured[-1]["shuffle_bytes_vs_bound"] if measured else None
    )
    return out


#: EngineStats field → the per-layer metric it feeds (serial engines have no
#: stats object: nothing crosses a process boundary, so all of these are 0)
STATS_METRICS = {
    "tasks_dispatched": "runtime.tasks_dispatched",
    "spec_bytes": "runtime.dispatch_bytes",
    "broadcast_bytes": "runtime.broadcast_bytes",
    "driver_bytes": "runtime.driver_bytes",
    "spill_bytes_written": "runtime.spill_bytes_written",
    "bytes_copied": "runtime.bytes_copied",
}


def stats_snapshot(engine: Any) -> dict[str, int]:
    """Integer meters of a pooled engine's ``stats`` (empty for serial / None)."""
    stats = getattr(engine, "stats", None)
    if stats is None:
        return {}
    return {name: value for name, value in vars(stats).items() if isinstance(value, int)}


def stats_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def tap_metrics(tap: CounterTap | None, plan_scheme: Any) -> dict[str, Any]:
    """Per-layer counts that only the job counters know (None without a tap)."""
    names = (
        "runtime.evaluations",
        "sketches.pairs_pruned",
        "shuffle.records",
        "scheme.max_working_set_bytes",
        "extsort.runs",
        "cost_model.comm_records_ratio",
    )
    if tap is None:
        return dict.fromkeys(names)
    shuffle_records = tap.get("framework", "shuffle_records")
    predicted = plan_scheme.metrics().communication_records
    return {
        "runtime.evaluations": tap.get("pairwise", "evaluations"),
        "sketches.pairs_pruned": tap.get("pairwise", "pairs_pruned"),
        "shuffle.records": shuffle_records,
        "scheme.max_working_set_bytes": tap.get("pairwise", "max_working_set_bytes"),
        "extsort.runs": tap.get("framework", "reduce_spill_runs"),
        "cost_model.comm_records_ratio": shuffle_records / predicted if predicted else None,
    }
