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
answers ``get_subsets`` / ``get_pairs`` is a ``DistributionScheme``, and the
pair function is called by ``pairwise.py`` and the brute-force oracles only —
rounds, rectangles and growth go through ``PairwiseComputation``, and a
schedule's simulation through ``simulate``.

The control plane offers no menu: one dispatch order, one placement
function, one attempt of a task in flight — the policy classes, the
``schedule_*`` wrappers, speculative execution and the switches nobody set
stay deleted.

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
            if {"get_subsets", "get_pairs"}
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
        assert calls_of(fold, "TaskCost", "_task_seconds", "_place", "_failure_impact") == []
        assert len(calls_of(fold, "simulate")) == 1


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
        assert len(read) >= 8, "the walk saw nothing"
        assert sorted(named ^ read) == []


class TestSanity:
    def test_walker_sees_real_imports(self):
        """The checker itself must not be vacuous."""
        imports = package_imports("repro.cluster")["repro/cluster/scheduler.py"]
        assert "repro.mapreduce.controlplane.policy" in imports
