"""Tests for hierarchical topologies and the capped hop-matrix cache.

The hierarchical models (:class:`HierDragonfly`, :class:`HierFatTree`)
replace the dense ``(N, N)`` hop matrix with O(1) per-pair closed forms;
these tests pin them to the graph-based topologies they abstract, and pin
the rank-level census (the aggregated alltoall's input) to brute force.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simsys.machine import pilatus, piz_daint, xc_scale
from repro.simsys.network import (
    HierDragonfly,
    HierFatTree,
    dragonfly,
    fat_tree,
    hier_dragonfly,
    hier_fat_tree,
    set_hop_matrix_budget,
    single_switch,
)

_DF_SHAPES = [(2, 2, 1), (3, 4, 2), (4, 4, 1), (5, 7, 3), (6, 16, 4)]
_FT_SHAPES = [(2, 3, 1), (4, 12, 2), (6, 6, 3)]


class TestHierMatchesGraph:
    """Closed-form hops must equal BFS on the explicit router graph."""

    @pytest.mark.parametrize("shape", _DF_SHAPES)
    def test_dragonfly_all_pairs(self, shape):
        g, r, npr = shape
        graph_topo = dragonfly(g, r, npr)
        hier = hier_dragonfly(g, r, npr)
        assert hier.n_compute_nodes == graph_topo.n_compute_nodes
        N = hier.n_compute_nodes
        src, dst = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        dense = graph_topo.pairwise_hops(src, dst)
        assert np.array_equal(
            hier.pairwise_hops(src.ravel(), dst.ravel()).reshape(N, N), dense
        )

    @pytest.mark.parametrize("shape", _FT_SHAPES)
    def test_fat_tree_all_pairs(self, shape):
        l, npl, s = shape
        graph_topo = fat_tree(l, npl, s)
        hier = hier_fat_tree(l, npl, s)
        N = hier.n_compute_nodes
        src, dst = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        dense = graph_topo.pairwise_hops(src, dst)
        assert np.array_equal(
            hier.pairwise_hops(src.ravel(), dst.ravel()).reshape(N, N), dense
        )

    def test_scalar_hops_agree_with_array_path(self):
        hier = hier_dragonfly(3, 4, 2)
        for a, b in [(0, 0), (0, 1), (0, 7), (5, 20), (23, 2)]:
            assert hier.hops(a, b) == int(
                hier.pairwise_hops(np.array([a]), np.array([b]))[0]
            )


class TestCensus:
    """rank_level_census must match brute-force counting on any placement."""

    @pytest.mark.parametrize("shape", _DF_SHAPES)
    def test_dragonfly_census_vs_brute_force(self, shape):
        hier = hier_dragonfly(*shape)
        rng = np.random.default_rng(7)
        P = 3 * hier.n_compute_nodes // 2
        node_of_rank = rng.integers(0, hier.n_compute_nodes, size=P)
        self._check(hier, node_of_rank)

    @pytest.mark.parametrize("shape", _FT_SHAPES)
    def test_fat_tree_census_vs_brute_force(self, shape):
        hier = hier_fat_tree(*shape)
        rng = np.random.default_rng(8)
        P = hier.n_compute_nodes
        node_of_rank = rng.integers(0, hier.n_compute_nodes, size=P)
        self._check(hier, node_of_rank)

    def test_graph_topology_census_matches_too(self):
        topo = single_switch(8)
        node_of_rank = np.array([0, 0, 1, 2, 2, 2, 7])
        self._check(topo, node_of_rank)

    @staticmethod
    def _check(topo, node_of_rank):
        same_node, hop_values, counts = topo.rank_level_census(node_of_rank)
        P = len(node_of_rank)
        exp_same = np.zeros(P, dtype=np.int64)
        exp_counts = np.zeros((P, len(hop_values)), dtype=np.int64)
        hop_index = {int(h): i for i, h in enumerate(hop_values)}
        for r in range(P):
            for o in range(P):
                if o == r:
                    continue
                if node_of_rank[o] == node_of_rank[r]:
                    exp_same[r] += 1
                else:
                    h = topo.hops(int(node_of_rank[o]), int(node_of_rank[r]))
                    exp_counts[r, hop_index[h]] += 1
        assert np.array_equal(same_node, exp_same)
        assert np.array_equal(counts, exp_counts)


class TestHopMatrixCacheBudget:
    def test_over_budget_matrix_refused_with_guidance(self):
        big = dragonfly(10, 16, 13)  # 2080 nodes -> ~34 MB matrix
        old = set_hop_matrix_budget(1 << 20)  # 1 MiB
        try:
            with pytest.raises(SimulationError, match="hierarchical"):
                big.pairwise_hops(np.array([0]), np.array([1]))
        finally:
            set_hop_matrix_budget(old)

    def test_budget_raise_allows_build(self):
        big = dragonfly(4, 8, 4)  # 128 nodes, 128 KiB matrix
        idx = np.arange(128)
        old = set_hop_matrix_budget(1 << 14)
        try:
            with pytest.raises(SimulationError):
                big.pairwise_hops(idx[:, None], idx[None, :])
            set_hop_matrix_budget(1 << 30)
            m = big.pairwise_hops(idx[:, None], idx[None, :])
            assert m.shape == (128, 128)
        finally:
            set_hop_matrix_budget(old)

    def test_hierarchical_topology_never_needs_the_cache(self):
        # A ~125k-node dragonfly: the dense matrix would be ~125 GB.
        hier = hier_dragonfly(1954, 16, 4)
        src = np.array([0, 1, 500_000 % hier.n_compute_nodes])
        dst = np.array([3, 125_000, 9])
        hops = hier.pairwise_hops(src, dst)
        assert hops.shape == (3,) and hops.max() <= 3


class TestDeprecation:
    def test_pairwise_hops_does_not_warn(self):
        import warnings

        topo = dragonfly(2, 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            topo.pairwise_hops(np.array([0, 1]), np.array([2, 3]))


class TestHierarchicalMachines:
    def test_piz_daint_hierarchical_matches_graph_hops(self):
        graph_m = piz_daint(64)
        hier_m = piz_daint(64, hierarchical=True)
        a = graph_m.network.topology
        b = hier_m.network.topology
        rng = np.random.default_rng(3)
        src = rng.integers(0, 64, size=200)
        dst = rng.integers(0, 64, size=200)
        assert np.array_equal(a.pairwise_hops(src, dst), b.pairwise_hops(src, dst))

    def test_pilatus_hierarchical_matches_graph_hops(self):
        graph_m = pilatus(44)
        hier_m = pilatus(44, hierarchical=True)
        rng = np.random.default_rng(4)
        src = rng.integers(0, 44, size=200)
        dst = rng.integers(0, 44, size=200)
        assert np.array_equal(
            graph_m.network.topology.pairwise_hops(src, dst),
            hier_m.network.topology.pairwise_hops(src, dst),
        )

    def test_xc_scale_reaches_a_million_ranks(self):
        m = xc_scale(125_000)
        assert m.n_nodes * m.node.cores >= 1_000_000
        assert isinstance(m.network.topology, HierDragonfly)

    def test_level_names_exposed(self):
        assert "group" in hier_dragonfly(2, 2, 1).levels
        assert isinstance(hier_fat_tree(2, 2, 1), HierFatTree)
