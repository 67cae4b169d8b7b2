"""Node model for the cluster simulator.

The paper's §6 observation drives the memory model: although 2010 cloud
machines had plenty of RAM, *per-task* memory was as little as 200 MB
because (a) several VMs share a physical machine and (b) each VM hosts
several concurrent mapper/reducer slots.  A :class:`NodeSpec` therefore
carries per-slot memory (the effective maxws), a slot count, and rates for
computing and I/O; :class:`ClusterSpec` aggregates homogeneous or mixed
nodes.

The paper also measured that "the working set size limit was hit a little
earlier than expected ... next to the elements themselves, other variables
and data need to be kept in memory" — modelled as
:attr:`NodeSpec.memory_overhead` (fraction of slot memory consumed by the
framework before any element is loaded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._util import MB


@dataclass(frozen=True)
class NodeSpec:
    """One worker node.

    - ``slot_memory`` — bytes of heap one task may use (the paper's maxws).
    - ``slots`` — concurrent tasks the node hosts.
    - ``eval_rate`` — pair evaluations per second per slot.
    - ``io_rate`` — bytes/second for local disk reads/writes.
    - ``memory_overhead`` — fraction of ``slot_memory`` consumed by the
      runtime itself (JVM/Python, framework buffers); the usable working
      set is ``slot_memory · (1 − memory_overhead)``.
    """

    slot_memory: int = 200 * MB
    slots: int = 2
    eval_rate: float = 10_000.0
    io_rate: float = 50 * MB
    memory_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.slot_memory < 1:
            raise ValueError(f"slot_memory must be positive, got {self.slot_memory}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.eval_rate <= 0 or self.io_rate <= 0:
            raise ValueError("rates must be positive")
        if not 0.0 <= self.memory_overhead < 1.0:
            raise ValueError(
                f"memory_overhead must be in [0, 1), got {self.memory_overhead}"
            )

    @property
    def usable_slot_memory(self) -> int:
        """Slot memory actually available for elements (after overhead)."""
        return int(self.slot_memory * (1.0 - self.memory_overhead))


@dataclass
class ClusterSpec:
    """A set of nodes; homogeneous by default.

    ``ClusterSpec.homogeneous(8)`` builds the paper-like 8-node cluster.
    """

    nodes: list[NodeSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")

    @classmethod
    def homogeneous(cls, num_nodes: int, spec: NodeSpec | None = None) -> "ClusterSpec":
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        return cls(nodes=[spec or NodeSpec()] * num_nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_slots(self) -> int:
        return sum(node.slots for node in self.nodes)

    @property
    def min_slot_memory(self) -> int:
        """The binding maxws: the smallest usable slot memory in the cluster."""
        return min(node.usable_slot_memory for node in self.nodes)
