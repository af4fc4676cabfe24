"""Interconnect models: topology, hop counts, and message cost.

The paper's systems use Cray's Aries interconnect in a *dragonfly* topology
(Piz Daint, Piz Dora) and InfiniBand FDR in a *fat tree* (Pilatus);
Section 4.1.2 insists that the network "topology, latency, and bandwidth"
be documented because they enable back-of-the-envelope reasoning.

Every topology here is such a back-of-the-envelope model: a closed form
over per-level node coordinates (node → router → group for the
dragonfly; node → leaf for the fat tree).  Hop counts come in O(1) per
pair straight from coordinates — no switch graph, no ``(N, N)`` matrix —
so one model serves a 4-node testbed and ``P = 10^6`` alike (see
docs/PERFORMANCE.md).

Message cost follows the postal/Hockney model
``t(m) = α + hops·α_hop + m/β`` with per-message noise added by the MPI
layer, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_int, check_nonneg, check_positive
from ..errors import SimulationError, ValidationError

__all__ = [
    "Topology",
    "Dragonfly",
    "FatTree",
    "dragonfly",
    "fat_tree",
    "single_switch",
    "NetworkModel",
]


class Topology:
    """Base for level-structured topologies with O(1) coordinate hop counts.

    Subclasses define the coordinate decomposition and the per-level hop
    formula; everything pairwise is computed from rank/node coordinates
    without materializing any ``(N, N)`` structure, so these models scale
    to millions of attached nodes.
    """

    name: str

    @property
    def n_compute_nodes(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def pairwise_hops(self, src_nodes, dst_nodes) -> np.ndarray:  # pragma: no cover
        """Element-wise hop counts between broadcastable node-index arrays."""
        raise NotImplementedError

    def rank_level_census(
        self, node_of_rank: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # pragma: no cover
        """Per-rank counts of peer ranks by hop level.

        Given the rank→node placement, returns ``(same_node, hop_values,
        counts)``: ``same_node[i]`` is the number of *other* ranks on rank
        *i*'s node, ``hop_values`` the topology's router hop levels, and
        ``counts[i, l]`` the number of ranks on *different* nodes exactly
        ``hop_values[l]`` hops away.  This is what the aggregated
        large-``P`` collectives consume.
        """
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        """Router-to-router hop count between two compute nodes.

        Two nodes on the same router are 0 router hops apart (they still
        pay the base NIC latency).
        """
        for node in (int(src), int(dst)):
            if not 0 <= node < self.n_compute_nodes:
                raise SimulationError(
                    f"node {node} not attached to topology {self.name!r}"
                )
        return int(
            self.pairwise_hops(
                np.asarray([src], dtype=np.int64), np.asarray([dst], dtype=np.int64)
            )[0]
        )


@dataclass(frozen=True)
class Dragonfly(Topology):
    """Idealized dragonfly with closed-form hop counts (Cray Aries shape).

    Levels: node → router (``nodes_per_router`` nodes share a NIC/router)
    → group (``routers_per_group`` routers per all-to-all group) → system
    (every pair of groups joined by one global link at router index
    ``(a + b) mod routers_per_group``).  Hop counts::

        same router                      0
        same group, different router     1
        different group                  1 + (ra != idx) + (rb != idx)

    i.e. at most router → global → router = 3 hops.  For ``groups <=
    routers_per_group`` (every shape the machine registry builds) this
    equals breadth-first-search distance on that router graph; the tests
    check it against BFS all-pairs.  For larger systems it *defines* the
    idealized minimal-route dragonfly, where Aries' multiple global links
    per group pair keep the direct route available.
    """

    groups: int
    routers_per_group: int
    nodes_per_router: int

    def __post_init__(self) -> None:
        check_int(self.groups, "groups", minimum=2)
        check_int(self.routers_per_group, "routers_per_group", minimum=1)
        check_int(self.nodes_per_router, "nodes_per_router", minimum=1)

    @property
    def name(self) -> str:
        return (
            f"dragonfly(g={self.groups},r={self.routers_per_group},"
            f"n={self.nodes_per_router})"
        )

    @property
    def n_compute_nodes(self) -> int:
        return self.groups * self.routers_per_group * self.nodes_per_router

    @property
    def levels(self) -> tuple[str, ...]:
        return ("node", "router", "group", "system")

    def coords(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ``(group, router)`` coordinates."""
        nodes = np.asarray(nodes, dtype=np.int64)
        per_group = self.routers_per_group * self.nodes_per_router
        return nodes // per_group, (nodes % per_group) // self.nodes_per_router

    def pairwise_hops(self, src_nodes, dst_nodes) -> np.ndarray:
        """Element-wise dragonfly hop counts from ``(group, router)`` coords."""
        ga, ra = self.coords(src_nodes)
        gb, rb = self.coords(dst_nodes)
        idx = (ga + gb) % self.routers_per_group
        inter = 1 + (ra != idx).astype(np.int64) + (rb != idx).astype(np.int64)
        intra = (ra != rb).astype(np.int64)
        return np.where(ga == gb, intra, inter)

    def rank_level_census(
        self, node_of_rank: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed-form per-rank census over hop levels (0, 1, 2, 3).

        O(P + G·R) for P ranks on G groups of R routers — never O(P²).
        See :meth:`Topology.rank_level_census` for the return contract.
        """
        nodes = np.asarray(node_of_rank, dtype=np.int64)
        G, R, npr = self.groups, self.routers_per_group, self.nodes_per_router
        node_counts = np.bincount(nodes, minlength=self.n_compute_nodes)
        counts_gr = node_counts.reshape(G, R, npr).sum(axis=2)
        group_tot = counts_gr.sum(axis=1)
        total = int(node_counts.sum())
        # Residue-class aggregates over groups: A[m, j] = ranks at router j
        # across groups b ≡ m (mod R); Btot[m] their group totals; Cres[s] =
        # Σ_b counts_gr[b, (g+b) % R] for any g with g ≡ s (mod R).
        res = np.arange(G, dtype=np.int64) % R
        A = np.zeros((R, R), dtype=np.int64)
        np.add.at(A, res, counts_gr)
        Btot = A.sum(axis=1)
        m_idx = np.arange(R, dtype=np.int64)
        Cres = np.array(
            [A[m_idx, (s + m_idx) % R].sum() for s in range(R)], dtype=np.int64
        )

        g, r = self.coords(nodes)
        own_router = counts_gr[g, r]
        own_group = group_tot[g]
        same_node = node_counts[nodes] - 1
        hop0 = own_router - node_counts[nodes]
        # Groups b ≠ g whose global link to g lands on router r of g
        # (idx_ab == r): their link-router ranks are 1 hop away.
        mstar = (r - g) % R
        own_in_class = (g % R) == mstar
        s_at_idx = A[mstar, r] - np.where(own_in_class, own_router, 0)
        s_class_tot = Btot[mstar] - np.where(own_in_class, own_group, 0)
        all_at_idx = Cres[g % R] - counts_gr[g, (2 * g) % R]
        hop1 = (own_group - own_router) + s_at_idx
        hop2_at_idx_nonclass = all_at_idx - s_at_idx
        hop2 = (s_class_tot - s_at_idx) + hop2_at_idx_nonclass
        other_groups = total - own_group
        hop3 = other_groups - s_class_tot - hop2_at_idx_nonclass
        hop_values = np.array([0, 1, 2, 3], dtype=np.int64)
        counts = np.stack([hop0, hop1, hop2, hop3], axis=1)
        return same_node, hop_values, counts


@dataclass(frozen=True)
class FatTree(Topology):
    """Two-level folded-Clos fat tree with closed-form hop counts.

    Levels: node → leaf switch (``nodes_per_leaf`` nodes per leaf) → spine
    (full bisection: every leaf connects to every spine).  Same leaf → 0
    hops; different leaves → leaf → spine → leaf = 2 hops — the InfiniBand
    FDR fat tree of Pilatus.  ``spine_switches`` documents the machine;
    under full bisection it does not change hop counts.
    """

    leaf_switches: int
    nodes_per_leaf: int
    spine_switches: int = 1

    def __post_init__(self) -> None:
        check_int(self.leaf_switches, "leaf_switches", minimum=1)
        check_int(self.nodes_per_leaf, "nodes_per_leaf", minimum=1)
        check_int(self.spine_switches, "spine_switches", minimum=1)

    @property
    def name(self) -> str:
        return (
            f"fat_tree(l={self.leaf_switches},n={self.nodes_per_leaf},"
            f"s={self.spine_switches})"
        )

    @property
    def n_compute_nodes(self) -> int:
        return self.leaf_switches * self.nodes_per_leaf

    @property
    def levels(self) -> tuple[str, ...]:
        return ("node", "leaf", "spine")

    def coords(self, nodes: np.ndarray) -> tuple[np.ndarray]:
        """Per-node ``(leaf,)`` coordinates."""
        return (np.asarray(nodes, dtype=np.int64) // self.nodes_per_leaf,)

    def pairwise_hops(self, src_nodes, dst_nodes) -> np.ndarray:
        """Element-wise fat-tree hop counts: 0 same leaf, 2 across leaves."""
        (la,) = self.coords(src_nodes)
        (lb,) = self.coords(dst_nodes)
        return np.where(la == lb, 0, 2).astype(np.int64)

    def rank_level_census(
        self, node_of_rank: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed-form per-rank census over hop levels (0, 2)."""
        nodes = np.asarray(node_of_rank, dtype=np.int64)
        node_counts = np.bincount(nodes, minlength=self.n_compute_nodes)
        leaf_counts = node_counts.reshape(self.leaf_switches, self.nodes_per_leaf).sum(
            axis=1
        )
        total = int(node_counts.sum())
        (leaf,) = self.coords(nodes)
        same_node = node_counts[nodes] - 1
        hop0 = leaf_counts[leaf] - node_counts[nodes]
        hop2 = total - leaf_counts[leaf]
        hop_values = np.array([0, 2], dtype=np.int64)
        return same_node, hop_values, np.stack([hop0, hop2], axis=1)


class _SingleSwitch(FatTree):
    """One leaf, no spine hop: every node pair is 0 router hops apart."""

    @property
    def name(self) -> str:
        return f"single_switch(n={self.nodes_per_leaf})"


def dragonfly(
    groups: int = 6, routers_per_group: int = 16, nodes_per_router: int = 4
) -> Dragonfly:
    """A canonical dragonfly: all-to-all intra-group, all-to-all inter-group.

    Each group is a clique of routers; every pair of groups is connected by
    one global link (placed round-robin over the group's routers).  This is
    the idealized structure of Cray Aries (one hop within a group, at most
    router→global→router between groups).
    """
    return Dragonfly(
        groups=groups,
        routers_per_group=routers_per_group,
        nodes_per_router=nodes_per_router,
    )


def fat_tree(
    leaf_switches: int = 18, nodes_per_leaf: int = 18, spine_switches: int = 9
) -> FatTree:
    """A two-level folded-Clos (fat tree): leaves all connect to all spines."""
    return FatTree(
        leaf_switches=leaf_switches,
        nodes_per_leaf=nodes_per_leaf,
        spine_switches=spine_switches,
    )


def single_switch(nodes: int) -> FatTree:
    """All nodes on one switch — the trivial testbed topology."""
    return _SingleSwitch(leaf_switches=1, nodes_per_leaf=nodes)


@dataclass(frozen=True)
class NetworkModel:
    """Deterministic message-cost model over a topology.

    Parameters
    ----------
    topology:
        The closed-form topology the compute nodes attach to.
    base_latency:
        One-way latency floor (s): NIC + software stack (the α term).
    per_hop_latency:
        Additional latency per router-to-router hop (s).
    bandwidth:
        Link bandwidth (B/s) — the 1/β term.
    """

    topology: Topology
    base_latency: float
    per_hop_latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        check_nonneg(self.base_latency, "base_latency")
        check_nonneg(self.per_hop_latency, "per_hop_latency")
        check_positive(self.bandwidth, "bandwidth")

    def message_time(self, src_node: int, dst_node: int, size_bytes: int) -> float:
        """Deterministic one-way transfer time for *size_bytes* (seconds).

        Intra-node communication (``src == dst``) pays a fixed fraction of
        the base latency (shared-memory transport) and no hop cost.
        """
        if size_bytes < 0:
            raise ValidationError("size_bytes must be non-negative")
        if src_node == dst_node:
            return 0.3 * self.base_latency + size_bytes / (4.0 * self.bandwidth)
        hops = self.topology.hops(src_node, dst_node)
        return (
            self.base_latency
            + hops * self.per_hop_latency
            + size_bytes / self.bandwidth
        )

    def level_times(self, hop_values: np.ndarray, size_bytes: int) -> np.ndarray:
        """Inter-node message times for an array of hop counts.

        The level-wise pricing used by the aggregated collectives: one
        entry per distinct hop level, same floating-point expression as
        :meth:`message_time`'s inter-node branch.
        """
        if size_bytes < 0:
            raise ValidationError("size_bytes must be non-negative")
        return (
            self.base_latency
            + np.asarray(hop_values) * self.per_hop_latency
            + size_bytes / self.bandwidth
        )

    def intra_node_time(self, size_bytes: int) -> float:
        """Shared-memory transport time for one intra-node message."""
        if size_bytes < 0:
            raise ValidationError("size_bytes must be non-negative")
        return 0.3 * self.base_latency + size_bytes / (4.0 * self.bandwidth)

    def message_time_array(
        self,
        src_nodes: np.ndarray,
        dst_nodes: np.ndarray,
        size_bytes,
    ) -> np.ndarray:
        """Vectorized :meth:`message_time` over arrays of compute nodes.

        Bit-identical to the scalar path element-for-element (same
        floating-point expression order), so the vectorized kernels and
        the scalar reference kernels price messages identically.
        *size_bytes* may be a scalar or a per-message array (alltoallv,
        gather-style schedules with varying payloads).
        """
        sizes = np.asarray(size_bytes)
        if np.any(sizes < 0):
            raise ValidationError("size_bytes must be non-negative")
        src = np.asarray(src_nodes, dtype=np.int64)
        dst = np.asarray(dst_nodes, dtype=np.int64)
        hops = self.topology.pairwise_hops(src, dst)
        inter = (
            self.base_latency
            + hops * self.per_hop_latency
            + sizes / self.bandwidth
        )
        intra = 0.3 * self.base_latency + sizes / (4.0 * self.bandwidth)
        return np.where(src == dst, intra, inter)
