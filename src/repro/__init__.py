"""repro — Pairwise Element Computation with MapReduce (HPDC 2010).

A full reproduction of Kiefer, Volk & Lehner's parallel pairwise
computation system: the generic two-MR-job algorithm, the broadcast /
block / design distribution schemes, the hierarchical §7 extensions, a
local MapReduce runtime, a cluster simulator for the §6 evaluation, the
combinatorial-design substrate, and the §1 motivating applications.

Quickstart::

    from repro import BlockScheme, PairwiseComputation

    def distance(a, b):
        return abs(a - b)

    scheme = BlockScheme(v=100, h=5)
    computation = PairwiseComputation(scheme, distance)
    elements = computation.run([float(x) for x in range(100)])
    # elements[1].results == {2: 1.0, 3: 2.0, ...}
"""

from . import apps, cluster, core, designs, kernels, mapreduce, workloads
from ._util import GB, KB, MB, TB
from .cluster import ClusterSimulator, ClusterSpec, NetworkModel, NodeSpec
from .kernels import PairKernel, ScalarKernel, available_kernels, resolve_kernel
from .core import (
    BlockScheme,
    BroadcastScheme,
    ConcatAggregator,
    DesignScheme,
    DistributionScheme,
    Element,
    HierarchicalBlockScheme,
    PairwiseComputation,
    SchemeMetrics,
    SequentialDesignSchedule,
    ThresholdAggregator,
    TopKAggregator,
    assert_valid_scheme,
    balance_report,
    brute_force_results,
    check_exactly_once,
    pairwise_results,
    results_matrix,
    run_rounds,
)
from .mapreduce import Job, MultiprocessEngine, SerialEngine

__version__ = "1.0.0"

__all__ = [
    "BlockScheme",
    "BroadcastScheme",
    "ClusterSimulator",
    "ClusterSpec",
    "ConcatAggregator",
    "DesignScheme",
    "DistributionScheme",
    "Element",
    "GB",
    "HierarchicalBlockScheme",
    "Job",
    "KB",
    "MB",
    "MultiprocessEngine",
    "NetworkModel",
    "NodeSpec",
    "PairKernel",
    "PairwiseComputation",
    "ScalarKernel",
    "SchemeMetrics",
    "SequentialDesignSchedule",
    "SerialEngine",
    "TB",
    "ThresholdAggregator",
    "TopKAggregator",
    "apps",
    "assert_valid_scheme",
    "available_kernels",
    "balance_report",
    "brute_force_results",
    "check_exactly_once",
    "cluster",
    "core",
    "designs",
    "kernels",
    "mapreduce",
    "pairwise_results",
    "resolve_kernel",
    "results_matrix",
    "run_rounds",
    "workloads",
]
