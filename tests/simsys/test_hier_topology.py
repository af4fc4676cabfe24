"""Tests for the closed-form topologies.

:class:`Dragonfly` and :class:`FatTree` compute hop counts from node
coordinates instead of searching a switch graph; these tests pin them to
breadth-first search over the explicit router adjacency (built here, in
plain Python), and pin the rank-level census (the aggregated alltoall's
input) to brute force.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.simsys.machine import pilatus, piz_daint, xc_scale
from repro.simsys.network import (
    Dragonfly,
    FatTree,
    dragonfly,
    fat_tree,
    single_switch,
)

_DF_SHAPES = [(2, 2, 1), (3, 4, 2), (4, 4, 1), (5, 7, 3), (6, 16, 4)]
_FT_SHAPES = [(2, 3, 1), (4, 12, 2), (6, 6, 3)]


def _dragonfly_routers(groups, routers_per_group, nodes_per_router):
    """Router adjacency and node attachment of the canonical dragonfly:
    one router clique per group, and one global link per group pair
    ``(a, b)`` between routers ``(a, idx)`` and ``(b, idx)``,
    ``idx = (a + b) mod routers_per_group``."""
    adj = {(g, r): set() for g in range(groups) for r in range(routers_per_group)}
    for g in range(groups):
        for i in range(routers_per_group):
            for j in range(i + 1, routers_per_group):
                adj[g, i].add((g, j))
                adj[g, j].add((g, i))
    for a in range(groups):
        for b in range(a + 1, groups):
            idx = (a + b) % routers_per_group
            adj[a, idx].add((b, idx))
            adj[b, idx].add((a, idx))
    attach = [
        (g, r)
        for g in range(groups)
        for r in range(routers_per_group)
        for _ in range(nodes_per_router)
    ]
    return adj, attach


def _fat_tree_routers(leaf_switches, nodes_per_leaf, spine_switches):
    """Switch adjacency and node attachment of a two-level folded Clos."""
    leaves = [("leaf", i) for i in range(leaf_switches)]
    spines = [("spine", i) for i in range(spine_switches)]
    adj = {sw: set() for sw in leaves + spines}
    for leaf in leaves:
        for spine in spines:
            adj[leaf].add(spine)
            adj[spine].add(leaf)
    attach = [leaf for leaf in leaves for _ in range(nodes_per_leaf)]
    return adj, attach


def _bfs_hops(adj, attach):
    """The ``(N, N)`` node hop matrix from BFS over the switch graph."""
    dist = {}
    for source in adj:
        seen = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        dist[source] = seen
    return np.array([[dist[a][b] for b in attach] for a in attach], dtype=np.int64)


def _all_pairs(topo):
    N = topo.n_compute_nodes
    src, dst = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    return topo.pairwise_hops(src.ravel(), dst.ravel()).reshape(N, N)


class TestHierMatchesGraph:
    """Closed-form hops must equal BFS on the explicit router graph."""

    @pytest.mark.parametrize("shape", _DF_SHAPES)
    def test_dragonfly_all_pairs(self, shape):
        topo = dragonfly(*shape)
        adj, attach = _dragonfly_routers(*shape)
        assert topo.n_compute_nodes == len(attach)
        assert np.array_equal(_all_pairs(topo), _bfs_hops(adj, attach))

    @pytest.mark.parametrize("shape", _FT_SHAPES)
    def test_fat_tree_all_pairs(self, shape):
        topo = fat_tree(*shape)
        adj, attach = _fat_tree_routers(*shape)
        assert topo.n_compute_nodes == len(attach)
        assert np.array_equal(_all_pairs(topo), _bfs_hops(adj, attach))

    def test_single_switch_all_pairs(self):
        topo = single_switch(8)
        assert topo.name == "single_switch(n=8)"
        assert np.array_equal(_all_pairs(topo), np.zeros((8, 8), dtype=np.int64))

    def test_scalar_hops_agree_with_array_path(self):
        topo = dragonfly(3, 4, 2)
        for a, b in [(0, 0), (0, 1), (0, 7), (5, 20), (23, 2)]:
            assert topo.hops(a, b) == int(
                topo.pairwise_hops(np.array([a]), np.array([b]))[0]
            )


class TestCensus:
    """rank_level_census must match brute-force counting on any placement."""

    @pytest.mark.parametrize("shape", _DF_SHAPES)
    def test_dragonfly_census_vs_brute_force(self, shape):
        topo = dragonfly(*shape)
        rng = np.random.default_rng(7)
        P = 3 * topo.n_compute_nodes // 2
        node_of_rank = rng.integers(0, topo.n_compute_nodes, size=P)
        self._check(topo, node_of_rank)

    @pytest.mark.parametrize("shape", _FT_SHAPES)
    def test_fat_tree_census_vs_brute_force(self, shape):
        topo = fat_tree(*shape)
        rng = np.random.default_rng(8)
        P = topo.n_compute_nodes
        node_of_rank = rng.integers(0, topo.n_compute_nodes, size=P)
        self._check(topo, node_of_rank)

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


class TestDeprecation:
    def test_pairwise_hops_does_not_warn(self):
        import warnings

        topo = dragonfly(2, 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            topo.pairwise_hops(np.array([0, 1]), np.array([2, 3]))


class TestHierarchicalMachines:
    """The paper machines' topologies are the stock router graphs."""

    def test_piz_daint_hierarchical_matches_graph_hops(self):
        topo = piz_daint(64).network.topology
        assert topo.name == "dragonfly(g=6,r=16,n=4)"
        assert np.array_equal(_all_pairs(topo), _bfs_hops(*_dragonfly_routers(6, 16, 4)))

    def test_pilatus_hierarchical_matches_graph_hops(self):
        topo = pilatus(44).network.topology
        assert topo.name == "fat_tree(l=4,n=12,s=2)"
        assert np.array_equal(_all_pairs(topo), _bfs_hops(*_fat_tree_routers(4, 12, 2)))

    def test_xc_scale_reaches_a_million_ranks(self):
        m = xc_scale(125_000)
        assert m.n_nodes * m.node.cores >= 1_000_000
        assert isinstance(m.network.topology, Dragonfly)

    def test_million_node_hops_need_no_matrix(self):
        # A ~125k-node dragonfly: a dense hop matrix would be ~125 GB.
        topo = dragonfly(1954, 16, 4)
        src = np.array([0, 1, 500_000 % topo.n_compute_nodes])
        dst = np.array([3, 125_000, 9])
        hops = topo.pairwise_hops(src, dst)
        assert hops.shape == (3,) and hops.max() <= 3

    def test_level_names_exposed(self):
        assert "group" in dragonfly(2, 2, 1).levels
        assert isinstance(fat_tree(2, 2, 1), FatTree)
        assert isinstance(single_switch(4), FatTree)
