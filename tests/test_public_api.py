"""Public API surface tests: exports exist, are documented, and stay stable."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.mapreduce",
    "repro.cluster",
    "repro.designs",
    "repro.apps",
    "repro.workloads",
    "repro.report",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_all_sorted_and_unique(self, package_name):
        package = importlib.import_module(package_name)
        names = list(package.__all__)
        assert names == sorted(names), f"{package_name}.__all__ not sorted"
        assert len(names) == len(set(names)), f"{package_name}.__all__ has dupes"

    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and package.__doc__.strip()


class TestDocumentation:
    @pytest.mark.parametrize("package_name", PACKAGES[1:])
    def test_public_callables_have_docstrings(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{package_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_every_module_has_docstring(self):
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        bare = []
        for path in sorted(root.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            stripped = text.lstrip()
            if stripped and not stripped.startswith(('"""', "'''", "#")):
                bare.append(str(path.relative_to(root)))
        assert not bare, f"modules without leading docstring: {bare}"


class TestStableSurface:
    """The names downstream code relies on; removing one is a break."""

    CORE_SURFACE = {
        "BroadcastScheme", "BlockScheme", "DesignScheme", "CyclicDesignScheme",
        "PairwiseComputation", "pairwise_results", "brute_force_results",
        "ConcatAggregator", "ThresholdAggregator", "TopKAggregator",
        "check_exactly_once", "balance_report", "choose_scheme",
        "HierarchicalBlockScheme", "SequentialDesignSchedule", "run_rounds",
        "auto_pairwise", "IncrementalPairwise", "Element", "results_matrix",
    }

    def test_core_surface_present(self):
        import repro.core

        missing = self.CORE_SURFACE - set(repro.core.__all__)
        assert not missing, f"core API regression: {missing}"

    def test_top_level_reexports(self):
        import repro

        for name in ("PairwiseComputation", "BlockScheme", "SerialEngine",
                     "ClusterSimulator", "Element", "KB", "MB", "GB", "TB"):
            assert hasattr(repro, name)

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestPinnedSignatures:
    """Parameter names of the pairwise and engine entry points.

    Adding, renaming or dropping a knob is an API decision: make it a
    conscious edit of this table, not a side effect of a refactor.
    """

    ENGINE_KNOBS = ("trace_sink", "data_plane", "journal_dir")
    OBJECTIVE_KNOBS = ("threshold", "top_k", "pruning", "exact_fallback", "sketch_params")
    PINNED = {
        # 12 keywords: the engine object *is* the engine configuration, so the
        # three ENGINE_KNOBS live on the engines and on auto_pairwise only.
        "PairwiseComputation.__init__": (
            "self", "scheme", "comp", "aggregator", "engine", "num_reduce_tasks",
            "symmetric", "kernel", "runtime_config", "max_attempts",
            *OBJECTIVE_KNOBS,
        ),
        "PairwiseComputation.run": ("self", "dataset", "num_map_tasks", "return_pipeline"),
        "PairwiseComputation.run_cached": (
            "self", "dataset", "num_map_tasks", "return_pipeline",
        ),
        "PairwiseComputation.run_broadcast_job": ("self", "dataset", "return_result"),
        "auto_pairwise": (
            "dataset", "comp", "element_size", "maxws", "maxis", "num_nodes",
            "aggregator", "engine", "symmetric", "auto_engine",
            *ENGINE_KNOBS, *OBJECTIVE_KNOBS, "scheme",
        ),
        "Engine.run": ("self", "job", "input_records", "splits", "num_map_tasks"),
        "Engine.run_chain": ("self", "jobs", "input_records", "num_map_tasks", "fuse"),
        "Pipeline.run": ("self", "input_records", "num_map_tasks", "fuse"),
        # The next engine knob is an edit of these five rows.
        "SerialEngine.__init__": ("self", "trace_sink"),
        "MultiprocessEngine.__init__": (
            "self", "max_workers", "shuffle_mode", "data_plane", "trace_sink", "journal_dir",
        ),
        "choose_engine": ("workload_hint", "max_workers", *ENGINE_KNOBS),
        "resume_job": ("journal_dir", "max_workers", "trace_sink"),
        "ClusterSimulator.__init__": (
            "self", "cluster", "network", "maxis", "task_overhead_bytes",
            "failure_model", "blacklist", "shuffle_plane",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_parameter_names(self, name):
        import repro.cluster
        import repro.core
        import repro.mapreduce

        head, *rest = name.split(".")
        target = next(
            getattr(package, head)
            for package in (repro.core, repro.mapreduce, repro.cluster)
            if hasattr(package, head)
        )
        for part in rest:
            target = getattr(target, part)
        assert tuple(inspect.signature(target).parameters) == self.PINNED[name]

    def test_pairwise_computation_has_twelve_keywords_and_no_lifecycle(self):
        from repro.core import PairwiseComputation

        parameters = inspect.signature(PairwiseComputation.__init__).parameters.values()
        assert sum(p.kind is p.KEYWORD_ONLY for p in parameters) == 12
        # It owns no engine, so there is nothing for it to close.
        assert not any(hasattr(PairwiseComputation, name) for name in ("close", "__enter__"))

    def test_scheme_choice_fields(self):
        """``routing`` is how callers learn which plan ``auto_pairwise`` ran."""
        import dataclasses

        from repro.core import SchemeChoice
        from repro.core.chooser import ROUTINGS

        fields = {field.name: field.default for field in dataclasses.fields(SchemeChoice)}
        assert tuple(fields) == ("scheme", "rationale", "routing")
        assert fields["routing"] == "shuffle"
        assert ROUTINGS == ("one-job", "cache", "shuffle")
