"""Cluster slots for the control plane's one placement function.

:func:`repro.mapreduce.controlplane.policy.place` knows tasks and slots,
not clusters.  This module handles the cluster-model concerns it does not
know about: expanding a :class:`~repro.cluster.node.ClusterSpec` into
slots that carry their node's relative speed, and validating the node
blacklist.  :class:`TaskCost` / :class:`Assignment` / ``place`` are
re-exported so cluster code has one import.
"""

from __future__ import annotations

from typing import Collection

from ..mapreduce.controlplane.policy import Assignment, Slot, TaskCost, place
from .node import ClusterSpec

__all__ = ["Assignment", "Slot", "TaskCost", "cluster_slots", "place"]


def cluster_slots(cluster: ClusterSpec, blacklist: Collection[int] = ()) -> list[Slot]:
    """All usable slots on non-blacklisted nodes, as placement :class:`Slot`\\ s.

    ``blacklist`` holds node indexes excluded from placement — Hadoop's
    TaskTracker blacklisting, where a node with repeated task failures
    stops receiving work.  Scheduling with every node blacklisted is a
    configuration error, not an empty schedule.

    Each slot carries its node's speed relative to the first node
    (``eval_rate / rate₀``) — task costs are in the first node's seconds.
    """
    excluded = set(blacklist)
    for index in excluded:
        if not 0 <= index < cluster.num_nodes:
            raise ValueError(
                f"blacklisted node {index} outside cluster of {cluster.num_nodes}"
            )
    rate0 = cluster.nodes[0].eval_rate
    slots = [
        Slot(node=node_index, index=slot_index, speed=node.eval_rate / rate0)
        for node_index, node in enumerate(cluster.nodes)
        if node_index not in excluded
        for slot_index in range(node.slots)
    ]
    if not slots:
        raise ValueError("every node is blacklisted; nothing can be scheduled")
    return slots
