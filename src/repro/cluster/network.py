"""Network cost model: the "possibly slow" interconnect of §3.

The execution model permits data shipping between jobs but no online
communication; all the simulator needs from the network is *how long bulk
transfers take* and *how many bytes crossed it*.  The model is a classic
α–β one: a transfer of ``b`` bytes costs ``latency + b / bandwidth``, and a
broadcast to ``n`` nodes pipelines through a tree of ``⌈log2 n⌉`` levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import MB


@dataclass(frozen=True)
class NetworkModel:
    """Per-link bandwidth/latency: point-to-point and broadcast times."""

    bandwidth: float = 100 * MB  #: bytes/second per node link
    latency: float = 0.5e-3  #: seconds per transfer setup

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")

    def transfer_time(self, num_bytes: int) -> float:
        """Point-to-point time to move ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError(f"bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        return self.latency + num_bytes / self.bandwidth

    def broadcast_time(self, num_bytes: int, num_nodes: int) -> float:
        """Time to replicate ``num_bytes`` to every node.

        Models Hadoop's distributed cache as a pipelined tree: the data
        crosses ~log2(n) link generations but the pipeline keeps every link
        busy, so the dominant term stays ``bytes / bandwidth`` with a
        latency factor per tree level.
        """
        import math

        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_nodes == 1 or num_bytes == 0:
            return 0.0
        levels = max(1, math.ceil(math.log2(num_nodes)))
        return levels * self.latency + num_bytes / self.bandwidth
