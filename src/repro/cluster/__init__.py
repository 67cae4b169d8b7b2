"""Cluster simulator: nodes, network, scheduling, and §6-style measurement."""

from .metrics import ComparisonRow, MeasuredMetrics, TheoryComparison
from .network import NetworkModel
from .node import ClusterSpec, NodeSpec
from .scheduler import Assignment, TaskCost
from .simulator import ClusterSimulator, LimitCheck, SimulationReport
from .trace import TaskSpan, Trace, build_trace

__all__ = [
    "Assignment",
    "ClusterSimulator",
    "ClusterSpec",
    "ComparisonRow",
    "LimitCheck",
    "MeasuredMetrics",
    "NetworkModel",
    "NodeSpec",
    "SimulationReport",
    "TaskCost",
    "TaskSpan",
    "TheoryComparison",
    "Trace",
    "build_trace",
]
