"""Cluster slots for the control plane's one placement function.

:func:`repro.mapreduce.controlplane.policy.place` knows tasks and slots,
not clusters.  This module handles the cluster-model concerns it does not
know about: expanding a :class:`~repro.cluster.node.ClusterSpec` into
slots that carry their node's relative speed.  :class:`TaskCost` /
:class:`Assignment` / ``place`` are re-exported so cluster code has one
import.
"""

from __future__ import annotations

from ..mapreduce.controlplane.policy import Assignment, Slot, TaskCost, place
from .node import ClusterSpec

__all__ = ["Assignment", "Slot", "TaskCost", "cluster_slots", "place"]


def cluster_slots(cluster: ClusterSpec) -> list[Slot]:
    """Every slot of every node, as placement :class:`Slot`\\ s.

    Each slot carries its node's speed relative to the first node
    (``eval_rate / rate₀``) — task costs are in the first node's seconds.
    """
    rate0 = cluster.nodes[0].eval_rate
    return [
        Slot(node=node_index, index=slot_index, speed=node.eval_rate / rate0)
        for node_index, node in enumerate(cluster.nodes)
        for slot_index in range(node.slots)
    ]
