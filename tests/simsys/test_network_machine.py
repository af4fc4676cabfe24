"""Tests for repro.simsys.network topologies and machine registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError, ValidationError
from repro.simsys import (
    MACHINES,
    NetworkModel,
    SimComm,
    dragonfly,
    fat_tree,
    get_machine,
    pilatus,
    piz_daint,
    piz_dora,
    single_switch,
    testbed as make_testbed,
)


class TestDragonfly:
    def test_attachment_count(self):
        topo = dragonfly(groups=3, routers_per_group=4, nodes_per_router=2)
        assert topo.n_compute_nodes == 24

    def test_same_router_zero_hops(self):
        topo = dragonfly(groups=3, routers_per_group=4, nodes_per_router=2)
        assert topo.hops(0, 1) == 0

    def test_intra_group_one_hop(self):
        topo = dragonfly(groups=3, routers_per_group=4, nodes_per_router=2)
        # node 0 on router (0,0), node 2 on router (0,1): same group clique.
        assert topo.hops(0, 2) == 1

    def test_inter_group_at_most_three_hops(self):
        topo = dragonfly(groups=6, routers_per_group=16, nodes_per_router=4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.integers(0, topo.n_compute_nodes, 2)
            (ga, gb), _ = topo.coords(np.array([a, b]))
            if ga != gb:
                assert 1 <= topo.hops(int(a), int(b)) <= 3

    def test_unknown_node_rejected(self):
        topo = dragonfly(groups=2, routers_per_group=2, nodes_per_router=1)
        with pytest.raises(SimulationError):
            topo.hops(0, 999)


class TestFatTree:
    def test_same_leaf_zero_hops(self):
        topo = fat_tree(leaf_switches=4, nodes_per_leaf=4, spine_switches=2)
        assert topo.hops(0, 3) == 0

    def test_cross_leaf_exactly_two_hops(self):
        topo = fat_tree(leaf_switches=4, nodes_per_leaf=4, spine_switches=2)
        assert topo.hops(0, 4) == 2
        assert topo.hops(1, 15) == 2

    def test_single_switch_all_zero(self):
        topo = single_switch(8)
        assert topo.hops(0, 7) == 0


class TestNetworkModel:
    def _model(self):
        return NetworkModel(
            topology=fat_tree(2, 2, 1),
            base_latency=1e-6,
            per_hop_latency=1e-7,
            bandwidth=1e9,
        )

    def test_latency_plus_bandwidth_terms(self):
        m = self._model()
        # nodes 0,2 on different leaves: 2 hops.
        t = m.message_time(0, 2, 1000)
        assert t == pytest.approx(1e-6 + 2e-7 + 1000 / 1e9)

    def test_zero_size_pure_latency(self):
        m = self._model()
        assert m.message_time(0, 2, 0) == pytest.approx(1.2e-6)

    def test_intra_node_cheaper(self):
        m = self._model()
        assert m.message_time(0, 0, 64) < m.message_time(0, 1, 64)

    def test_monotone_in_size(self):
        m = self._model()
        assert m.message_time(0, 2, 10_000) > m.message_time(0, 2, 100)

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            self._model().message_time(0, 1, -1)


class TestMachineRegistry:
    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_instantiable(self, name):
        m = get_machine(name)
        assert m.n_nodes >= 1
        assert m.peak_flops > 0

    def test_unknown_machine(self):
        with pytest.raises(ValidationError):
            get_machine("summit")

    def test_piz_daint_peak_matches_paper(self):
        """64 nodes: theoretical peak 94.5 Tflop/s (Section 1)."""
        m = piz_daint(64)
        assert m.peak_flops == pytest.approx(94.5e12, rel=0.01)

    def test_piz_daint_node_description(self):
        node = piz_daint().node
        assert node.cores == 8
        assert "E5-2670" in node.cpu_model
        assert node.accelerator is not None

    def test_piz_dora_two_socket(self):
        assert piz_dora().node.cores == 24

    def test_pilatus_fat_tree(self):
        assert "fat_tree" in pilatus().network.topology.name

    def test_with_nodes(self):
        m = piz_daint(64).with_nodes(8)
        assert m.n_nodes == 8
        assert m.peak_flops == pytest.approx(94.5e12 / 8, rel=0.01)

    def test_too_many_nodes_rejected(self):
        # The factories size the topology to n_nodes; a machine resized
        # past the nodes its topology attaches is refused.
        with pytest.raises(ValidationError, match="only attaches 384 nodes"):
            piz_daint(64).with_nodes(100_000)

    @pytest.mark.parametrize(
        "name", ["pilatus", "piz_daint", "piz_dora", "xc_scale", "testbed"])
    @pytest.mark.parametrize("n_nodes", [0, "64", 2.5])
    def test_bad_node_count_rejected(self, name, n_nodes):
        with pytest.raises(ValidationError, match="n_nodes"):
            get_machine(name, n_nodes=n_nodes)

    @pytest.mark.parametrize(
        "make, n_nodes, shape",
        [
            (piz_daint, 384, dragonfly(6, 16, 4)),
            (piz_daint, 500, dragonfly(8, 16, 4)),
            (pilatus, 48, fat_tree(4, 12, 2)),
            (pilatus, 100, fat_tree(9, 12, 2)),
        ],
    )
    def test_paper_machines_grow_past_their_stock_shape(self, make, n_nodes, shape):
        m = make(n_nodes)
        assert m.network.topology == shape
        out = SimComm(m, n_nodes, placement="one_per_node", seed=1).reduce(8, 2)
        assert out.shape == (2, n_nodes) and np.all(np.isfinite(out))

    def test_testbed_deterministic_mode(self, rng):
        m = make_testbed(2, deterministic=True)
        assert np.all(m.network_noise.sample(rng, 100) == 0.0)

    def test_peak_includes_cpu(self):
        with pytest.raises(ValidationError):
            from repro.simsys import NodeSpec

            NodeSpec(
                name="bad", sockets=1, cores_per_socket=1, cpu_model="x",
                cpu_flops=2e12, peak_flops=1e12, mem_bytes=1, mem_bandwidth=1e9,
            )
