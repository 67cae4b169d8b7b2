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

The last checks are about the documents, not the code: every file path
they name must exist, so a deleted script cannot stay cited as evidence,
and every ``EngineStats`` field ``docs/API.md`` tabulates must be one.
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
        assert sorted(named - attributes) == []


class TestSanity:
    def test_walker_sees_real_imports(self):
        """The checker itself must not be vacuous."""
        imports = package_imports("repro.cluster")["repro/cluster/scheduler.py"]
        assert "repro.mapreduce.controlplane.policy" in imports
