"""Node/cluster spec and network model tests."""

import pytest

from repro._util import MB
from repro.cluster.network import NetworkModel
from repro.cluster.node import ClusterSpec, NodeSpec


class TestNodeSpec:
    def test_defaults_match_paper_environment(self):
        node = NodeSpec()
        assert node.slot_memory == 200 * MB  # the paper's observed maxws

    def test_usable_memory_after_overhead(self):
        node = NodeSpec(slot_memory=200 * MB, memory_overhead=0.1)
        assert node.usable_slot_memory == 180 * MB

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(slot_memory=0)
        with pytest.raises(ValueError):
            NodeSpec(slots=0)
        with pytest.raises(ValueError):
            NodeSpec(eval_rate=0)
        with pytest.raises(ValueError):
            NodeSpec(memory_overhead=1.0)
        with pytest.raises(ValueError):
            NodeSpec(memory_overhead=-0.1)


class TestClusterSpec:
    def test_homogeneous(self):
        cluster = ClusterSpec.homogeneous(8)
        assert cluster.num_nodes == 8
        assert cluster.total_slots == 16

    def test_min_slot_memory_heterogeneous(self):
        cluster = ClusterSpec(
            nodes=[NodeSpec(slot_memory=400 * MB), NodeSpec(slot_memory=200 * MB)]
        )
        assert cluster.min_slot_memory == 200 * MB

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=[])
        with pytest.raises(ValueError):
            ClusterSpec.homogeneous(0)


class TestNetworkModel:
    def test_transfer_time_alpha_beta(self):
        net = NetworkModel(bandwidth=100 * MB, latency=1e-3)
        assert net.transfer_time(100 * MB) == pytest.approx(1.001)

    def test_zero_bytes_free(self):
        assert NetworkModel().transfer_time(0) == 0.0

    def test_broadcast_single_node_free(self):
        assert NetworkModel().broadcast_time(100 * MB, 1) == 0.0

    def test_broadcast_dominated_by_volume(self):
        net = NetworkModel(bandwidth=100 * MB, latency=0.0)
        assert net.broadcast_time(200 * MB, 16) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-5)
        with pytest.raises(ValueError):
            NetworkModel().broadcast_time(10, 0)
