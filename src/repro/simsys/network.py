"""Interconnect models: topology, hop counts, and message cost.

The paper's systems use Cray's Aries interconnect in a *dragonfly* topology
(Piz Daint, Piz Dora) and InfiniBand FDR in a *fat tree* (Pilatus);
Section 4.1.2 insists that the network "topology, latency, and bandwidth"
be documented because they enable back-of-the-envelope reasoning.

Two families of topology model coexist, selected by scale:

* **graph-backed** (:class:`Topology`): the actual switch graph (networkx)
  with hop counts from breadth-first search.  Pairwise lookups go through a
  dense ``(N, N)`` hop matrix that is built *lazily* and kept in a
  byte-budgeted LRU cache (:func:`set_hop_matrix_budget`) so a stray
  large-``N`` construction fails loudly instead of silently exhausting
  memory.  This is the small-``P`` reference path.
* **hierarchical** (:class:`HierDragonfly`, :class:`HierFatTree`): closed
  forms over per-level rank coordinates (node → router → group for the
  dragonfly; node → leaf for the fat tree).  Hop counts are computed in
  O(1) per pair straight from coordinates — no graph, no matrix — which is
  what makes ``P = 10^6`` feasible (see docs/PERFORMANCE.md).

Message cost follows the postal/Hockney model
``t(m) = α + hops·α_hop + m/β`` with per-message noise added by the MPI
layer, not here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import networkx as nx
import numpy as np

from .._validation import check_int, check_nonneg, check_positive
from ..errors import SimulationError, ValidationError

__all__ = [
    "Topology",
    "HierarchicalTopology",
    "HierDragonfly",
    "HierFatTree",
    "dragonfly",
    "fat_tree",
    "single_switch",
    "hier_dragonfly",
    "hier_fat_tree",
    "NetworkModel",
    "set_hop_matrix_budget",
    "DEFAULT_HOP_MATRIX_BUDGET",
]

#: Default byte budget for cached dense hop matrices (all topologies
#: together).  A single matrix larger than the budget is refused outright —
#: at that scale the hierarchical models are the supported path.
DEFAULT_HOP_MATRIX_BUDGET = 256 * 2**20


class _HopMatrixCache:
    """Byte-budgeted LRU of dense hop matrices, keyed by topology.

    Dense ``(N, N)`` matrices are only a convenience for small topologies;
    this cache makes their lifetime explicit: built on first use, evicted
    least-recently-used once the total byte budget is exceeded, and refused
    (with a pointer at the hierarchical models) when a single matrix alone
    would blow the budget.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[object, np.ndarray] = OrderedDict()
        self._bytes = 0

    def get(self, key: object, builder, name: str, nbytes: int) -> np.ndarray:
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        if nbytes > self.max_bytes:
            raise SimulationError(
                f"dense hop matrix for topology {name!r} needs {nbytes} bytes, "
                f"over the {self.max_bytes}-byte cache budget; use a "
                "hierarchical topology (hier_dragonfly / hier_fat_tree) for "
                "large node counts, or raise set_hop_matrix_budget()"
            )
        matrix = builder()
        self._entries[key] = matrix
        self._bytes += matrix.nbytes
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
        return matrix

    def resize(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        while self._bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes

    @property
    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
        }


_HOP_CACHE = _HopMatrixCache(DEFAULT_HOP_MATRIX_BUDGET)


def set_hop_matrix_budget(max_bytes: int) -> int:
    """Set the dense hop-matrix cache budget (bytes); returns the old one.

    Shrinking the budget evicts least-recently-used matrices immediately.
    """
    max_bytes = check_int(max_bytes, "max_bytes", minimum=0)
    old = _HOP_CACHE.max_bytes
    _HOP_CACHE.resize(max_bytes)
    return old


@dataclass(frozen=True)
class Topology:
    """A network graph whose nodes carry attached compute-node ids.

    ``graph`` vertices are switches/routers; the mapping
    ``attachment[compute_node] -> router vertex`` places compute nodes.
    """

    name: str
    graph: nx.Graph
    attachment: dict[int, object]

    @property
    def n_compute_nodes(self) -> int:
        """Number of attachable compute nodes."""
        return len(self.attachment)

    def hops(self, src: int, dst: int) -> int:
        """Router-to-router hop count between two compute nodes.

        Two nodes on the same router are 0 router hops apart (they still
        pay the base NIC latency).  Results are cached per topology.
        """
        if src not in self.attachment or dst not in self.attachment:
            raise SimulationError(
                f"node {src if src not in self.attachment else dst} not attached "
                f"to topology {self.name!r}"
            )
        a, b = self.attachment[src], self.attachment[dst]
        if a == b:
            return 0
        return _shortest_path_len(id(self), self.graph, a, b)

    def pairwise_hops(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> np.ndarray:
        """Hop counts for arrays of compute-node pairs (vectorized).

        The level-wise lookup API: graph-backed topologies answer through
        the lazily built, budget-capped dense matrix; hierarchical
        topologies override this with closed-form coordinate arithmetic.
        """
        matrix = self._dense_hop_matrix()
        return matrix[np.asarray(src_nodes), np.asarray(dst_nodes)]

    def _dense_hop_matrix(self) -> np.ndarray:
        """The cached, budget-capped dense ``(N, N)`` hop matrix."""
        items = tuple(sorted(self.attachment.items()))
        if any(node != i for i, (node, _) in enumerate(items)):
            raise SimulationError(
                f"topology {self.name!r} attaches non-contiguous node ids; "
                "the dense hop matrix needs nodes 0..N-1"
            )
        n = len(items)
        return _HOP_CACHE.get(
            self.graph,
            lambda: _build_hop_matrix(self.graph, items),
            self.name,
            n * n * 8,
        )

    def rank_level_census(
        self, node_of_rank: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-rank counts of peer ranks by hop level.

        Given the rank→node placement, returns ``(same_node, hop_values,
        counts)``: ``same_node[i]`` is the number of *other* ranks on rank
        *i*'s node, ``hop_values`` the distinct router hop counts, and
        ``counts[i, l]`` the number of ranks on *different* nodes exactly
        ``hop_values[l]`` hops away.  Graph-backed topologies answer via
        the dense matrix (small ``N`` only); hierarchical topologies use
        closed forms.  This is what the aggregated large-``P`` collectives
        consume.
        """
        nodes = np.asarray(node_of_rank, dtype=np.int64)
        matrix = self._dense_hop_matrix()
        node_counts = np.bincount(nodes, minlength=self.n_compute_nodes)
        same_node = node_counts[nodes] - 1
        hops_all = matrix[nodes][:, nodes]  # small-N only, by construction
        hop_values = np.unique(hops_all)
        counts = np.empty((nodes.size, hop_values.size), dtype=np.int64)
        for li, h in enumerate(hop_values):
            counts[:, li] = (hops_all == h).sum(axis=1)
        # Same-node pairs sit at hop 0 in the matrix; carve them (and the
        # self-pair) out of the hop-0 column so the split is exact.
        zero_col = int(np.searchsorted(hop_values, 0))
        if hop_values[zero_col] == 0:
            counts[:, zero_col] -= same_node + 1
        return same_node, hop_values, counts


# Cache keyed by topology identity: graphs are immutable once built.
@lru_cache(maxsize=200_000)
def _shortest_path_len(topo_id: int, graph: nx.Graph, a, b) -> int:
    return int(nx.shortest_path_length(graph, a, b))


def _build_hop_matrix(graph: nx.Graph, attachment_items: tuple) -> np.ndarray:
    """Expand router-level BFS distances to the compute-node pair matrix."""
    routers: list = []
    seen: dict = {}
    for _, router in attachment_items:
        if router not in seen:
            seen[router] = len(routers)
            routers.append(router)
    rmat = np.zeros((len(routers), len(routers)), dtype=np.int64)
    for i, router in enumerate(routers):
        lengths = nx.single_source_shortest_path_length(graph, router)
        for j, other in enumerate(routers):
            if other not in lengths:
                raise SimulationError(
                    f"routers {router!r} and {other!r} are disconnected"
                )
            rmat[i, j] = lengths[other]
    ridx = np.array([seen[router] for _, router in attachment_items], dtype=np.int64)
    matrix = rmat[np.ix_(ridx, ridx)]
    matrix.setflags(write=False)
    return matrix


# -- hierarchical (closed-form) topologies -----------------------------------


class HierarchicalTopology:
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

    def _check_nodes(self, *nodes: int) -> None:
        for node in nodes:
            if not 0 <= node < self.n_compute_nodes:
                raise SimulationError(
                    f"node {node} not attached to topology {self.name!r}"
                )

    def hops(self, src: int, dst: int) -> int:
        """Scalar hop count between two compute nodes."""
        self._check_nodes(int(src), int(dst))
        return int(
            self.pairwise_hops(
                np.asarray([src], dtype=np.int64), np.asarray([dst], dtype=np.int64)
            )[0]
        )


@dataclass(frozen=True)
class HierDragonfly(HierarchicalTopology):
    """Idealized dragonfly with closed-form hop counts (Cray Aries shape).

    Levels: node → router (``nodes_per_router`` nodes share a NIC/router)
    → group (``routers_per_group`` routers per all-to-all group) → system
    (every pair of groups joined by one global link at router index
    ``(a + b) mod routers_per_group``).  Hop counts::

        same router                      0
        same group, different router     1
        different group                  1 + (ra != idx) + (rb != idx)

    i.e. at most router → global → router = 3 hops.  For ``groups <=
    routers_per_group`` this equals BFS distance on the graph built by
    :func:`dragonfly` (property-tested); for larger systems it *defines*
    the idealized minimal-route dragonfly, where Aries' multiple global
    links per group pair keep the direct route available.
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
            f"hier_dragonfly(g={self.groups},r={self.routers_per_group},"
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
class HierFatTree(HierarchicalTopology):
    """Two-level folded-Clos fat tree with closed-form hop counts.

    Levels: node → leaf switch (``nodes_per_leaf`` nodes per leaf) → spine
    (full bisection assumed: every leaf reaches every leaf through some
    spine).  Same leaf → 0 hops; different leaves → leaf → spine → leaf =
    2 hops.  ``spine_switches`` is carried for documentation parity with
    :func:`fat_tree`; under full bisection it does not change hop counts.
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
            f"hier_fat_tree(l={self.leaf_switches},n={self.nodes_per_leaf},"
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


def hier_dragonfly(
    groups: int = 6, routers_per_group: int = 16, nodes_per_router: int = 4
) -> HierDragonfly:
    """Closed-form dragonfly; drop-in for :func:`dragonfly` at any scale."""
    return HierDragonfly(
        groups=groups,
        routers_per_group=routers_per_group,
        nodes_per_router=nodes_per_router,
    )


def hier_fat_tree(
    leaf_switches: int = 18, nodes_per_leaf: int = 18, spine_switches: int = 9
) -> HierFatTree:
    """Closed-form fat tree; drop-in for :func:`fat_tree` at any scale."""
    return HierFatTree(
        leaf_switches=leaf_switches,
        nodes_per_leaf=nodes_per_leaf,
        spine_switches=spine_switches,
    )


# -- graph-backed topology factories -----------------------------------------


def dragonfly(
    groups: int = 6, routers_per_group: int = 16, nodes_per_router: int = 4
) -> Topology:
    """A canonical dragonfly: all-to-all intra-group, all-to-all inter-group.

    Each group is a clique of routers; every pair of groups is connected by
    one global link (placed round-robin over the group's routers).  This is
    the idealized structure of Cray Aries (one-hop within a group, at most
    router→global→router between groups).
    """
    groups = check_int(groups, "groups", minimum=2)
    routers_per_group = check_int(routers_per_group, "routers_per_group", minimum=1)
    nodes_per_router = check_int(nodes_per_router, "nodes_per_router", minimum=1)
    g = nx.Graph()
    for grp in range(groups):
        routers = [(grp, r) for r in range(routers_per_group)]
        g.add_nodes_from(routers)
        for i in range(routers_per_group):
            for j in range(i + 1, routers_per_group):
                g.add_edge(routers[i], routers[j])
    # Global links: group pair (a, b) connects router (a, idx) to (b, idx).
    for a in range(groups):
        for b in range(a + 1, groups):
            idx = (a + b) % routers_per_group
            g.add_edge((a, idx), (b, idx))
    attachment: dict[int, object] = {}
    node = 0
    for grp in range(groups):
        for r in range(routers_per_group):
            for _ in range(nodes_per_router):
                attachment[node] = (grp, r)
                node += 1
    return Topology(
        name=f"dragonfly(g={groups},r={routers_per_group},n={nodes_per_router})",
        graph=g,
        attachment=attachment,
    )


def fat_tree(
    leaf_switches: int = 18, nodes_per_leaf: int = 18, spine_switches: int = 9
) -> Topology:
    """A two-level folded-Clos (fat tree): leaves all connect to all spines.

    Any two nodes on different leaves are exactly leaf→spine→leaf = 2 hops
    apart — the InfiniBand FDR fat tree of Pilatus.
    """
    leaf_switches = check_int(leaf_switches, "leaf_switches", minimum=1)
    nodes_per_leaf = check_int(nodes_per_leaf, "nodes_per_leaf", minimum=1)
    spine_switches = check_int(spine_switches, "spine_switches", minimum=1)
    g = nx.Graph()
    leaves = [("leaf", i) for i in range(leaf_switches)]
    spines = [("spine", i) for i in range(spine_switches)]
    g.add_nodes_from(leaves)
    g.add_nodes_from(spines)
    for leaf in leaves:
        for spine in spines:
            g.add_edge(leaf, spine)
    attachment = {
        leaf_idx * nodes_per_leaf + k: ("leaf", leaf_idx)
        for leaf_idx in range(leaf_switches)
        for k in range(nodes_per_leaf)
    }
    return Topology(
        name=f"fat_tree(l={leaf_switches},n={nodes_per_leaf},s={spine_switches})",
        graph=g,
        attachment=attachment,
    )


def single_switch(nodes: int) -> Topology:
    """All nodes on one switch — the trivial testbed topology."""
    nodes = check_int(nodes, "nodes", minimum=1)
    g = nx.Graph()
    g.add_node("sw")
    return Topology(
        name=f"single_switch(n={nodes})",
        graph=g,
        attachment={i: "sw" for i in range(nodes)},
    )


@dataclass(frozen=True)
class NetworkModel:
    """Deterministic message-cost model over a topology.

    Parameters
    ----------
    topology:
        The switch graph (or hierarchical model) with compute-node
        attachments.
    base_latency:
        One-way latency floor (s): NIC + software stack (the α term).
    per_hop_latency:
        Additional latency per router-to-router hop (s).
    bandwidth:
        Link bandwidth (B/s) — the 1/β term.
    """

    topology: Topology | HierarchicalTopology
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
