"""Architecture layering checks (AST-level, no imports executed).

The control-plane extraction draws two hard lines:

- ``repro.mapreduce.controlplane`` is the engine-agnostic layer: it must
  not import the engines (``repro.mapreduce.runtime``), the worker-side
  task code, or anything from ``repro.cluster`` — the simulator and the
  engines both sit *on top of* it.
- ``repro.cluster`` models execution abstractly: it may use the shared
  control-plane vocabulary, but must not reach into the real execution
  machinery (``runtime`` / ``tasks`` / ``spill`` / ``fusion``).

These are enforced over the import *statements* of every module in each
package, with relative imports resolved to absolute module paths.

``repro.core`` has one mapping-schema interface and one executor: whatever
answers ``get_subsets`` / ``pair_array`` is a ``DistributionScheme``, and the
pair function is called by ``pairwise.py`` and the brute-force oracles only —
rounds and rectangles go through ``PairwiseComputation``, and a
schedule's simulation through ``simulate``.

The control plane offers no menu: one dispatch order, one placement
function, one attempt of a task in flight — the policy classes, the
``schedule_*`` wrappers, speculative execution and the switches nobody set
stay deleted.  It has one retry loop, the driver's: a worker runs exactly
the attempt it was dispatched.

A pair relation is an int64 array from scheme to kernel: every scheme
implements ``pair_array``, ``get_pairs`` is the base class's list view, and
only ``run_local`` reads tuples in ``pairwise.py``.

Leg 2 ships result blocks: the pairwise producers emit once per task, from
``cleanup``, never one record per element.

The periphery nothing ran — a second file route, a DFS model, Streaming
stages, a range partitioner, an incremental wrapper — stays deleted, and so
do the simulator options only tests set: a failure model, a node blacklist,
a relay shuffle plane, and a second JSONL reader in the trace loader.  The
MapReduce substrate keeps only what the pairwise plans use: no combiner, no
sort proxies, no ``Pipeline`` wrapper, no per-job split size and no
duplicate-pair policy.

A declared objective prunes one sound way: no MinHash estimate mode, no
sketch-parameter pass-through, and no ``sound`` flag on a pruner, since
every pruner is sound.

Everything the engine persists is one SPC1 container: ``struct`` framing,
``os.replace`` publication and file-object pickles live in
``serialization.py``'s writer or nowhere.

The last checks are about the documents, not the code: every file path
they name must exist, so a deleted script cannot stay cited as evidence,
``docs/API.md`` tabulates exactly the ``EngineStats`` fields, and its
job-config table lists exactly the keys the runtime reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: modules that constitute the real execution machinery
ENGINE_MODULES = (
    "repro.mapreduce.runtime",
    "repro.mapreduce.tasks",
    "repro.mapreduce.spill",
    "repro.mapreduce.fusion",
)


def imported_modules(path: Path) -> set[str]:
    """Absolute module names imported anywhere in ``path`` (incl. lazily)."""
    package_parts = path.relative_to(SRC).with_suffix("").parts
    if package_parts[-1] == "__init__":
        package_parts = package_parts[:-1]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Resolve "from ..x import y" against this module's package.
                anchor = package_parts[: len(package_parts) - node.level]
                base = ".".join(anchor + tuple(filter(None, [node.module])))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def package_imports(package: str) -> dict[str, set[str]]:
    root = SRC / Path(*package.split("."))
    return {
        str(path.relative_to(SRC)): imported_modules(path)
        for path in sorted(root.rglob("*.py"))
    }


def violations(package: str, forbidden: tuple[str, ...]) -> list[str]:
    found = []
    for module, imports in package_imports(package).items():
        for name in sorted(imports):
            if any(name == f or name.startswith(f + ".") for f in forbidden):
                found.append(f"{module} imports {name}")
    return found


class TestControlPlaneLayer:
    def test_does_not_import_engines(self):
        assert violations("repro.mapreduce.controlplane", ENGINE_MODULES) == []

    def test_does_not_import_cluster(self):
        assert violations("repro.mapreduce.controlplane", ("repro.cluster",)) == []


class TestClusterLayer:
    def test_does_not_import_engine_internals(self):
        assert violations("repro.cluster", ENGINE_MODULES) == []


class TestCoreLayer:
    def test_pairwise_does_not_import_runner(self):
        """``runner`` sits on top of ``pairwise``; the reverse edge was a cycle."""
        imports = imported_modules(SRC / "repro" / "core" / "pairwise.py")
        assert not {name for name in imports if name.startswith("repro.core.runner")}


def core_trees() -> dict[str, ast.Module]:
    root = SRC / "repro" / "core"
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))
    }


def calls_of(tree: ast.AST, *names: str) -> list[int]:
    """Line numbers of calls ``name(...)`` / ``anything.name(...)`` under ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]


class TestOneSchemaInterfaceOneExecutor:
    def test_whatever_answers_get_subsets_is_a_distribution_scheme(self):
        classes = {
            node.name: node
            for tree in core_trees().values()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }

        def ancestry(name: str) -> set[str]:
            bases = {getattr(b, "id", getattr(b, "attr", "")) for b in classes[name].bases}
            return bases.union(*(ancestry(base) for base in bases if base in classes))

        schemas = [
            name
            for name, node in classes.items()
            if {"get_subsets", "pair_array"}
            & {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        ]
        assert len(schemas) >= 9  # the interface and its eight concrete classes
        strays = [
            name
            for name in schemas
            if name != "DistributionScheme" and "DistributionScheme" not in ancestry(name)
        ]
        assert strays == []

    def test_only_the_executor_and_the_oracles_call_the_pair_function(self):
        trees = core_trees()
        callers = {name for name, tree in trees.items() if calls_of(tree, "comp")}
        assert callers == {"pairwise.py", "bipartite.py"}
        (oracle,) = [
            node
            for node in trees["bipartite.py"].body
            if isinstance(node, ast.FunctionDef) and node.name == "brute_force_bipartite"
        ]
        assert calls_of(trees["bipartite.py"], "comp") == calls_of(oracle, "comp")

    def test_the_forks_are_gone(self):
        trees = core_trees()
        defined = {
            node.name
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        gone = {"BipartiteMetrics", "_RoundScheme", "run_rounds_mr", "check_bipartite_exactly_once"}
        assert defined & gone == set()
        runner = trees["runner.py"]
        assert [n.id for n in ast.walk(runner) if isinstance(n, ast.Name)].count(
            "NotImplementedError"
        ) == 0
        assert len(calls_of(runner, "PairwiseComputation")) == 1  # one keyword set, one place

    def test_a_schedule_is_simulated_as_its_rounds(self):
        simulator = ast.parse((SRC / "repro/cluster/simulator.py").read_text(encoding="utf-8"))
        (fold,) = [
            node
            for node in ast.walk(simulator)
            if isinstance(node, ast.FunctionDef) and node.name == "simulate_schedule"
        ]
        assert calls_of(fold, "TaskCost", "_task_seconds", "_place") == []
        assert len(calls_of(fold, "simulate")) == 1


class TestPairsAreArrays:
    """A scheme implements ``pair_array``; the compute steps take its array as is."""

    COMPUTE_STEPS = {"ComputeReducer": "reduce", "CachedComputeReducer": "reduce",
                     "BroadcastPairMapper": "map"}

    def test_no_scheme_overrides_the_list_view(self):
        definers = sorted(
            f"{path.name}: {node.name}"
            for path in sorted((SRC / "repro").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            and "get_pairs" in {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        )
        assert definers == ["scheme.py: DistributionScheme"]

    def test_the_compute_steps_call_pair_array(self):
        tree = core_trees()["pairwise.py"]
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        callers = {
            name: bool(calls_of(method, "pair_array"))
            for name, step in self.COMPUTE_STEPS.items()
            for method in classes[name].body
            if isinstance(method, ast.FunctionDef) and method.name == step
        }
        assert callers == dict.fromkeys(self.COMPUTE_STEPS, True)

    def test_only_run_local_reads_tuples(self):
        tree = core_trees()["pairwise.py"]
        (run_local,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "run_local"
        ]
        tuple_calls = ("get_pairs", "pair_index_array")
        assert calls_of(run_local, *tuple_calls), "run_local moved: this check reads nothing"
        assert calls_of(tree, *tuple_calls) == calls_of(run_local, *tuple_calls)


class TestLegTwoShipsBlocks:
    PRODUCERS = ("ComputeReducer", "CachedComputeReducer", "BroadcastPairMapper")

    def test_producers_emit_only_in_cleanup(self):
        """A return to per-element emission emits from ``reduce`` / ``map`` and fails here."""
        tree = core_trees()["pairwise.py"]
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

        def lineage(name: str) -> list[str]:
            bases = [getattr(base, "id", "") for base in classes[name].bases]
            return [name, *(a for base in bases if base in classes for a in lineage(base))]

        emitters = {
            f"{cls}.{method.name}"
            for producer in self.PRODUCERS
            for cls in lineage(producer)
            for method in classes[cls].body
            if isinstance(method, ast.FunctionDef) and calls_of(method, "emit")
        }
        assert emitters, "the producers emit nowhere: this check reads nothing"
        assert [name for name in sorted(emitters) if not name.endswith(".cleanup")] == []
        helpers = [
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and calls_of(node, "emit")
        ]
        assert helpers == []


class TestTheMenuIsGone:
    def test_no_policy_class_no_wrapper_no_backup_attempt_no_dead_switch(self):
        policy_classes, names, strings = [], set(), set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and node.name.endswith("Policy"):
                    policy_classes.append(f"{path.name}: {node.name}")
                for field in ("name", "id", "attr", "arg"):  # defs, names, attributes, params
                    if isinstance(getattr(node, field, None), str):
                        names.add(getattr(node, field))
                if isinstance(node, ast.alias):
                    names.update((node.name, node.asname or node.name))
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.add(node.value)
        assert len(names) > 1000, "the walk saw nothing"
        assert policy_classes == []
        assert [
            name
            for name in sorted(names)
            if name in ("resolve_policy", "scheduling_policy", "schedule_round_robin")
            or name.startswith("schedule_lpt")
            or "speculative" in name
        ] == []
        # Config keys are strings; docstrings that merely mention one are longer.
        assert strings & {"verify_spill_integrity", "pipeline_fusion"} == set()
        assert not any("speculative" in text for text in strings if " " not in text)

    def test_policy_module_imports_nothing_from_the_repo(self):
        """Stricter than ``TestControlPlaneLayer``: engines and simulator both sit on it."""
        imports = imported_modules(SRC / "repro/mapreduce/controlplane/policy.py")
        assert not {name for name in imports if name.startswith("repro")}

    def test_one_function_places_and_one_orders(self):
        """``place`` alone writes a placement; ``dispatch_order`` alone sorts tasks by cost."""
        policy = ast.parse(
            (SRC / "repro/mapreduce/controlplane/policy.py").read_text(encoding="utf-8")
        )
        functions = [node.name for node in policy.body if isinstance(node, ast.FunctionDef)]
        assert functions == ["dispatch_order", "place"]
        writers = {
            path.name
            for path in sorted((SRC / "repro").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Subscript) and getattr(target.value, "id", "") == "placement"
        }
        assert writers == {"policy.py"}
        cluster = SRC / "repro" / "cluster"
        placers = {
            path.name: len(calls_of(ast.parse(path.read_text(encoding="utf-8")), "place"))
            for path in sorted(cluster.glob("*.py"))
        }
        assert {name: count for name, count in placers.items() if count} == {
            "simulator.py": 1,  # ClusterSimulator._place
            "trace.py": 1,  # build_trace
        }
        runtime = ast.parse((SRC / "repro/mapreduce/runtime.py").read_text(encoding="utf-8"))
        assert len(calls_of(runtime, "dispatch_order")) == 1  # Engine._dispatch_order
        assert len(calls_of(runtime, "_dispatch_order")) == 2  # one per engine


class TestThePeripheryIsGone:
    """Nothing ran these modules or the methods that served them."""

    MODULES = {
        "mapreduce/textio.py": (
            "read_output_dir", "read_records", "run_job_on_files",
            "write_partitioned", "write_records",
        ),
        "core/fileflow.py": (
            "FileFlowReport", "load_elements", "run_pairwise_on_files", "write_element_files",
        ),
        "mapreduce/hdfs.py": ("DistributedFileSystem",),
        "mapreduce/streaming.py": ("StreamingMapper", "StreamingProtocolError", "StreamingReducer"),
        "mapreduce/partitioners.py": ("RangePartitioner", "is_globally_sorted"),
        "core/incremental.py": ("BatchReport", "IncrementalPairwise"),
    }

    def test_the_six_files_are_absent(self):
        assert [name for name in self.MODULES if (SRC / "repro" / name).exists()] == []

    def test_no_package_exports_their_names(self):
        forbidden = {Path(name).stem for name in self.MODULES}.union(*self.MODULES.values())
        exported = []
        for init in sorted((SRC / "repro").rglob("__init__.py")):
            for node in ast.parse(init.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                    names = {element.value for element in node.value.elts}
                    exported += [f"{init.parent.name}: {n}" for n in sorted(names & forbidden)]
        assert exported == []

    def test_the_methods_that_served_them_are_gone(self):
        def methods(path: str, cls: str) -> set[str]:
            tree = ast.parse((SRC / "repro" / path).read_text(encoding="utf-8"))
            (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
            return {item.name for item in node.body if isinstance(item, ast.FunctionDef)}

        pairwise = methods("core/pairwise.py", "PairwiseComputation")
        simulator = methods("cluster/simulator.py", "ClusterSimulator")
        assert {"run", "_execute"} <= pairwise and "simulate" in simulator  # the walk reads
        assert "build_jobs" not in pairwise
        assert "input_locality" not in simulator

    def test_the_simulator_keeps_only_what_its_callers_read(self):
        """No failure model, no blacklist, no relay plane, one JSONL reader."""
        trees = {
            path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "repro" / "cluster").glob("*.py"))
        }

        def function(module: str, name: str, cls: str | None = None) -> ast.FunctionDef:
            body = trees[module].body
            if cls is not None:
                (owner,) = [n for n in body if isinstance(n, ast.ClassDef) and n.name == cls]
                body = owner.body
            (node,) = [n for n in body if isinstance(n, ast.FunctionDef) and n.name == name]
            return node

        def parameters(node: ast.FunctionDef) -> list[str]:
            args = node.args
            return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

        init = function("simulator.py", "__init__", "ClusterSimulator")
        assert parameters(init) == ["self", "cluster", "network", "maxis", "task_overhead_bytes"]
        assert parameters(function("scheduler.py", "cluster_slots")) == ["cluster"]
        defined = {
            node.name
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        assert len(defined) > 20, "the walk saw nothing"
        assert defined & {"FailureModel", "relay_shuffle_time", "_from_jsonl"} == set()
        # The trace loader parses one JSON document itself; lines go to the shared reader.
        trace = trees["trace.py"]
        assert calls_of(trace, "parse_jsonl_tolerant"), "the trace loader reads no JSONL"
        assert len(calls_of(trace, "loads")) == 1
        assert calls_of(trace, "splitlines") == []

    def test_the_substrate_keeps_only_what_the_plans_use(self):
        """No combiner, no sort proxies, no Pipeline, no split-size key, no duplicate policy."""
        trees = {
            str(path.relative_to(SRC / "repro")): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "repro").rglob("*.py"))
        }

        def definition(module: str, name: str) -> ast.AST:
            (node,) = [n for n in trees[module].body if getattr(n, "name", None) == name]
            return node

        def parameters(node: ast.FunctionDef) -> list[str]:
            args = node.args
            return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

        job = definition("mapreduce/job.py", "Job")
        assert [n.target.id for n in job.body if isinstance(n, ast.AnnAssign)] == [
            "name", "mapper", "reducer", "num_reducers", "partitioner", "cache", "config",
        ]
        assert parameters(definition("core/element.py", "merge_copies")) == ["copies"]
        sorter = definition("mapreduce/extsort.py", "ExternalSorter")
        (init,) = [n for n in sorter.body if getattr(n, "name", None) == "__init__"]
        assert parameters(init) == ["self", "memory_budget", "spill_dir"]
        assert parameters(definition("mapreduce/shuffle.py", "sort_and_group")) == ["records"]
        defined = {
            getattr(node, "name", None) or getattr(target, "id", None)
            for module, tree in trees.items()
            if module.startswith("mapreduce/")
            for node in ast.walk(tree)
            for target in getattr(node, "targets", [None])
        }
        assert len(defined) > 50, "the walk saw nothing"
        assert {"Pipeline", "partition_records"} & defined == set()
        assert [name for name in defined if str(name).startswith("COMBINE_")] == []
        readers = [
            f"{module}:{node.lineno}"
            for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "records_per_split"
        ]
        assert readers == []


class TestOneWayToPrune:
    """``pruning="sketch"`` has sound bounds only, so nothing selects or reports soundness."""

    def test_no_estimate_mode_and_no_pass_through(self):
        mentions = [
            f"{path.relative_to(SRC)}: {word}"
            for path in sorted((SRC / "repro").rglob("*.py"))
            for word in ("exact_fallback", "sketch_params", "estimated_jaccard")
            if word in path.read_text(encoding="utf-8")
        ]
        assert mentions == []

    def test_a_pruner_has_no_soundness_flag(self):
        tree = ast.parse((SRC / "repro/sketches/pruners.py").read_text(encoding="utf-8"))
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        assert {"PairPruner", "ThresholdPruner", "TopKPruner"} <= set(classes)
        flagged = [
            f"{name}.{item.name}"
            for name, node in classes.items()
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "sound"
        ]
        assert flagged == []


class TestTheEngineOwnsRetries:
    """Task retries are engine constructor arguments, never an open pass-through dict,
    and the driver decides every attempt: a worker runs exactly one."""

    @staticmethod
    def mentions(*words: str) -> list[str]:
        paths = sorted((SRC / "repro").rglob("*.py"))
        assert len(paths) > 20, "the walk saw nothing"
        return [
            f"{path.relative_to(SRC)}: {word}"
            for path in paths
            for word in words
            if word in path.read_text(encoding="utf-8")
        ]

    def test_no_module_mentions_runtime_config(self):
        assert self.mentions("runtime_config") == []

    def test_one_retry_loop_in_the_driver(self):
        assert self.mentions("run_attempt_loop", "first_attempt", "lost_error") == []


class TestOneContainer:
    """Every file the engine reads back is SPC1: one writer, one checking reader.

    A second hand-rolled frame format needs ``struct``, a second atomic
    writer needs ``os.replace``, and an unchecked durable pickle needs
    ``pickle.dump`` / ``pickle.load`` on a file object — each is confined
    to ``serialization.py``'s container or gone.
    """

    @staticmethod
    def trees() -> dict[str, ast.Module]:
        return {
            str(path.relative_to(SRC / "repro")): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "repro").rglob("*.py"))
        }

    def test_only_serialization_imports_struct(self):
        importers = {
            name
            for name, tree in self.trees().items()
            for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "struct")
        }
        assert importers == {"mapreduce/serialization.py"}

    def test_only_the_spill_writer_renames_into_place(self):
        def is_replace(node: ast.AST) -> bool:
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace"
                and getattr(node.func.value, "id", None) == "os"
            )

        calls, inside = [], []
        for name, tree in self.trees().items():
            calls += [f"{name}:{node.lineno}" for node in ast.walk(tree) if is_replace(node)]
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "write_spill_segments":
                    inside += [f"{name}:{n.lineno}" for n in ast.walk(node) if is_replace(n)]
        assert len(inside) == 1
        assert calls == inside

    def test_no_file_object_pickle(self):
        found = [
            f"{name}:{node.lineno}"
            for name, tree in self.trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "dump")
            and getattr(node.func.value, "id", None) == "pickle"
        ]
        assert found == []


class TestDocsFollowFiles:
    """README, DESIGN, EXPERIMENTS, ``docs/`` and the verify skill name real files.

    CHANGES.md is history and ``benchmarks/e2e/`` is the frozen ruler;
    neither is scanned.
    """

    NAMED = re.compile(
        r"(?<![\w/])(?:(?:benchmarks|tests|src)/[\w./-]*\w\.py|bench_\w+\.py|BENCH_\w+\.json)\b"
    )

    def test_every_named_path_exists(self):
        documents = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
        documents += sorted((ROOT / "docs").glob("*.md"))
        documents.append(ROOT / ".claude" / "skills" / "verify" / "SKILL.md")
        # A bare ``bench_x.py`` may name a script in any benchmark directory.
        bench_scripts = {path.name for path in (ROOT / "benchmarks").rglob("bench_*.py")}
        missing = [
            f"{document.name}: {name}"
            for document in documents
            for name in sorted(set(self.NAMED.findall(document.read_text(encoding="utf-8"))))
            if not (ROOT / name).is_file() and name not in bench_scripts
        ]
        assert missing == []

    def test_engine_stats_table_names_real_fields(self):
        """First column of ``docs/API.md``'s EngineStats table vs the dataclass."""
        stats = ast.parse((SRC / "repro/mapreduce/stats.py").read_text(encoding="utf-8"))
        (cls,) = [
            node
            for node in stats.body
            if isinstance(node, ast.ClassDef) and node.name == "EngineStats"
        ]
        attributes = {
            node.target.id if isinstance(node, ast.AnnAssign) else node.name
            for node in cls.body
            if isinstance(node, (ast.AnnAssign, ast.FunctionDef))
        }
        api = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        section = api.split("### EngineStats", 1)[1].split("\n### ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        named = {
            name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])
        }
        assert len(named) > 10, "the table moved: this check reads nothing"
        assert sorted(named ^ attributes) == []

    def test_job_config_table_names_real_keys(self):
        """First column of ``docs/API.md``'s job-config table vs the keys the runtime reads.

        A read is ``….config["key"]`` or ``….config.get("key", …)`` under
        ``src/repro/mapreduce`` (AST-level, so docstrings do not count).
        """

        def is_config(node: ast.AST) -> bool:
            return getattr(node, "id", getattr(node, "attr", None)) == "config"

        read = set()
        for path in sorted((SRC / "repro" / "mapreduce").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                key = None
                if isinstance(node, ast.Subscript) and is_config(node.value):
                    key = node.slice
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and is_config(node.func.value)
                    and node.args
                ):
                    key = node.args[0]
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    read.add(key.value)
        api = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        section = api.split("### Job config keys", 1)[1].split("\n### ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        named = {name for row in rows for name in re.findall(r"`([\w.]+)`", row.split("|")[1])}
        assert read, "the walk saw nothing"
        assert sorted(named ^ read) == []


class TestSanity:
    def test_walker_sees_real_imports(self):
        """The checker itself must not be vacuous."""
        imports = package_imports("repro.cluster")["repro/cluster/scheduler.py"]
        assert "repro.mapreduce.controlplane.policy" in imports
