"""Machine models and the registry of the paper's three systems.

Section 4.1.2 documents the experimental setup we must reproduce:

* **Piz Daint** (Cray XC30): 8-core Intel Xeon E5-2670, 32 GiB DDR3-1600,
  NVIDIA Tesla K20X (6 GiB GDDR5), Aries dragonfly.  64 nodes have a
  theoretical HPL peak of 94.5 Tflop/s.
* **Piz Dora** (Cray XC40): 2 × 12-core Xeon E5-2690 v3, 64 GiB DDR4,
  Aries dragonfly.  64 B ping-pong latencies center near 1.7–1.8 µs
  (Figures 2, 3, 7c; min 1.57 µs, max 7.2 µs).
* **Pilatus**: 2 × 8-core Xeon E5-2670, 64 GiB DDR3-1600, InfiniBand FDR
  fat tree, MVAPICH2 (min 1.48 µs, max 11.59 µs — lower floor, longer tail).

Since the real machines are inaccessible (and two are decommissioned), the
specs below are *calibrated simulations*: deterministic cost models plus
noise profiles tuned so the simulated distributions match the shapes and
anchor statistics printed in the paper.  See DESIGN.md for the substitution
rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .._validation import check_int, check_positive
from ..errors import ValidationError
from .network import Dragonfly, NetworkModel, dragonfly, fat_tree, single_switch
from .noise import (
    CompositeNoise,
    ExponentialSpikes,
    GaussianNoise,
    LogNormalNoise,
    NoiseModel,
)

__all__ = [
    "NodeSpec",
    "MachineSpec",
    "piz_daint",
    "piz_dora",
    "pilatus",
    "testbed",
    "xc_scale",
    "MACHINES",
    "get_machine",
]

#: Aries-like group shape of every dragonfly here: 16 routers x 4 nodes =
#: 64 nodes per group.  The XC30/XC40 machines stock six groups.
_ARIES_ROUTERS_PER_GROUP = 16
_ARIES_NODES_PER_ROUTER = 4
_ARIES_STOCK_GROUPS = 6


def _sized_dragonfly(n_nodes: int, min_groups: int = 2) -> Dragonfly:
    """An Aries-shaped dragonfly of at least *min_groups* groups covering
    *n_nodes*."""
    n_nodes = check_int(n_nodes, "n_nodes", minimum=1)
    per_group = _ARIES_ROUTERS_PER_GROUP * _ARIES_NODES_PER_ROUTER
    return dragonfly(
        groups=max(min_groups, -(-n_nodes // per_group)),
        routers_per_group=_ARIES_ROUTERS_PER_GROUP,
        nodes_per_router=_ARIES_NODES_PER_ROUTER,
    )


@dataclass(frozen=True)
class NodeSpec:
    """Per-node hardware description (what Table 1 asks papers to report).

    ``peak_flops`` counts accelerators; ``cpu_flops`` only the host CPU.
    ``mem_bandwidth`` is the aggregate DRAM bandwidth in B/s.
    """

    name: str
    sockets: int
    cores_per_socket: int
    cpu_model: str
    cpu_flops: float
    peak_flops: float
    mem_bytes: int
    mem_bandwidth: float
    accelerator: str | None = None

    def __post_init__(self) -> None:
        check_int(self.sockets, "sockets", minimum=1)
        check_int(self.cores_per_socket, "cores_per_socket", minimum=1)
        check_positive(self.cpu_flops, "cpu_flops")
        check_positive(self.peak_flops, "peak_flops")
        check_int(self.mem_bytes, "mem_bytes", minimum=1)
        check_positive(self.mem_bandwidth, "mem_bandwidth")
        if self.peak_flops < self.cpu_flops:
            raise ValidationError("peak_flops must include cpu_flops")

    @property
    def cores(self) -> int:
        """Total cores per node."""
        return self.sockets * self.cores_per_socket


@dataclass(frozen=True)
class MachineSpec:
    """A complete simulated machine.

    Combines node hardware, the interconnect model, and the machine's
    characteristic noise profiles:

    ``network_noise``
        extra per-message delay (right-skewed; drives ping-pong tails).
    ``compute_noise_cov``
        coefficient of variation of compute-phase durations (OS jitter,
        turbo, cache state).
    ``noisy_rank_factor`` / ``noisy_core_stride``
        per-rank heterogeneity: every ``noisy_core_stride``-th rank hosts
        system services and sees its noise scaled by ``noisy_rank_factor``
        (drives Figure 6's outlier processes).
    """

    name: str
    description: str
    n_nodes: int
    node: NodeSpec
    network: NetworkModel
    network_noise: NoiseModel
    compute_noise_cov: float
    noisy_rank_factor: float = 3.0
    noisy_core_stride: int = 24
    software: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        check_int(self.n_nodes, "n_nodes", minimum=1)
        if self.n_nodes > self.network.topology.n_compute_nodes:
            raise ValidationError(
                f"{self.name}: topology only attaches "
                f"{self.network.topology.n_compute_nodes} nodes, need {self.n_nodes}"
            )
        check_positive(self.noisy_rank_factor, "noisy_rank_factor")
        check_int(self.noisy_core_stride, "noisy_core_stride", minimum=1)

    @property
    def peak_flops(self) -> float:
        """Machine-wide theoretical peak (flop/s)."""
        return self.n_nodes * self.node.peak_flops

    def with_nodes(self, n_nodes: int) -> "MachineSpec":
        """The same machine restricted/expanded to *n_nodes* nodes."""
        return replace(self, n_nodes=n_nodes)


def piz_daint(n_nodes: int = 64) -> MachineSpec:
    """Piz Daint (Cray XC30 + K20X), calibrated to the paper's Section 4.1.2.

    64-node peak: 64 × (0.166 CPU + 1.311 GPU) Tflop/s ≈ 94.5 Tflop/s,
    matching the paper's HPL peak.  The Aries dragonfly has the stock six
    groups (384 nodes) and grows by whole groups beyond that.
    """
    node = NodeSpec(
        name="XC30 compute node",
        sockets=1,
        cores_per_socket=8,
        cpu_model="Intel Xeon E5-2670 @ 2.6 GHz",
        cpu_flops=0.1664e12,
        peak_flops=1.4766e12,
        mem_bytes=32 * 2**30,
        mem_bandwidth=51.2e9,
        accelerator="NVIDIA Tesla K20X (6 GiB GDDR5)",
    )
    net = NetworkModel(
        topology=_sized_dragonfly(n_nodes, _ARIES_STOCK_GROUPS),
        base_latency=1.10e-6,
        per_hop_latency=0.10e-6,
        bandwidth=10.0e9,
    )
    noise = CompositeNoise(
        (
            LogNormalNoise(median=0.12e-6, sigma=0.70),
            ExponentialSpikes(prob=0.004, mean=1.5e-6),
            GaussianNoise(sigma=0.015e-6),
        )
    )
    return MachineSpec(
        name="piz_daint",
        description="Cray XC30, Aries dragonfly, CSCS (simulated)",
        n_nodes=n_nodes,
        node=node,
        network=net,
        network_noise=noise,
        compute_noise_cov=0.018,
        noisy_rank_factor=4.0,
        noisy_core_stride=24,
        software=(
            ("prgenv", "Cray Programming Environment 5.1.29"),
            ("batch", "slurm 14.03.7"),
            ("compiler", "gcc 4.8.2 -O3"),
        ),
    )


def piz_dora(n_nodes: int = 64) -> MachineSpec:
    """Piz Dora (Cray XC40), calibrated to the 64 B ping-pong anchors.

    Target distribution (Figures 2/3/7c): floor ≈ 1.57 µs, median ≈ 1.72 µs,
    mean ≈ 1.77 µs, max ≈ 7.2 µs — moderate log-normal tail.  The
    dragonfly is sized as in :func:`piz_daint`.
    """
    node = NodeSpec(
        name="XC40 compute node",
        sockets=2,
        cores_per_socket=12,
        cpu_model="Intel Xeon E5-2690 v3 @ 2.6 GHz",
        cpu_flops=0.9984e12,
        peak_flops=0.9984e12,
        mem_bytes=64 * 2**30,
        mem_bandwidth=136.0e9,
    )
    net = NetworkModel(
        topology=_sized_dragonfly(n_nodes, _ARIES_STOCK_GROUPS),
        base_latency=1.555e-6,
        per_hop_latency=0.08e-6,
        bandwidth=11.0e9,
    )
    noise = CompositeNoise(
        (
            LogNormalNoise(median=0.14e-6, sigma=0.60),
            ExponentialSpikes(prob=0.004, mean=1.35e-6),
            GaussianNoise(sigma=0.015e-6),
        )
    )
    return MachineSpec(
        name="piz_dora",
        description="Cray XC40, Aries dragonfly, CSCS (simulated)",
        n_nodes=n_nodes,
        node=node,
        network=net,
        network_noise=noise,
        compute_noise_cov=0.015,
        noisy_rank_factor=3.5,
        noisy_core_stride=24,
        software=(
            ("prgenv", "Cray Programming Environment 5.2.40"),
            ("batch", "slurm 14.03.7"),
            ("compiler", "gcc 4.8.2 -O3"),
        ),
    )


def pilatus(n_nodes: int = 44) -> MachineSpec:
    """Pilatus (InfiniBand FDR fat tree, MVAPICH2).

    Target distribution (Figure 3): lower floor ≈ 1.48 µs but a longer,
    fatter tail (max ≈ 11.6 µs) — lower base latency, noisier transport.
    The fat tree has the stock four 12-node leaves (48 nodes) and grows by
    whole leaves beyond that.
    """
    node = NodeSpec(
        name="Pilatus compute node",
        sockets=2,
        cores_per_socket=8,
        cpu_model="Intel Xeon E5-2670 @ 2.6 GHz",
        cpu_flops=0.3328e12,
        peak_flops=0.3328e12,
        mem_bytes=64 * 2**30,
        mem_bandwidth=102.4e9,
    )
    n_nodes = check_int(n_nodes, "n_nodes", minimum=1)
    net = NetworkModel(
        topology=fat_tree(
            leaf_switches=max(4, -(-n_nodes // 12)), nodes_per_leaf=12, spine_switches=2
        ),
        base_latency=1.465e-6,
        per_hop_latency=0.07e-6,
        bandwidth=6.8e9,
    )
    noise = CompositeNoise(
        (
            LogNormalNoise(median=0.23e-6, sigma=0.88),
            ExponentialSpikes(prob=0.008, mean=2.0e-6),
            GaussianNoise(sigma=0.02e-6),
        )
    )
    return MachineSpec(
        name="pilatus",
        description="InfiniBand FDR fat tree, MVAPICH2 1.9 (simulated)",
        n_nodes=n_nodes,
        node=node,
        network=net,
        network_noise=noise,
        compute_noise_cov=0.02,
        noisy_rank_factor=3.0,
        noisy_core_stride=16,
        software=(
            ("mpi", "MVAPICH2 1.9"),
            ("batch", "slurm 14.03.7"),
            ("compiler", "gcc 4.8.2 -O3"),
        ),
    )


def testbed(n_nodes: int = 4, *, deterministic: bool = False) -> MachineSpec:
    """A tiny fast machine for tests: one switch, light (or zero) noise."""
    from .noise import NoNoise

    n_nodes = check_int(n_nodes, "n_nodes", minimum=1)
    node = NodeSpec(
        name="testbed node",
        sockets=1,
        cores_per_socket=4,
        cpu_model="test CPU",
        cpu_flops=1e11,
        peak_flops=1e11,
        mem_bytes=8 * 2**30,
        mem_bandwidth=25.6e9,
    )
    net = NetworkModel(
        topology=single_switch(n_nodes),
        base_latency=1.0e-6,
        per_hop_latency=0.0,
        bandwidth=10.0e9,
    )
    noise: NoiseModel = (
        NoNoise() if deterministic else LogNormalNoise(median=0.05e-6, sigma=0.5)
    )
    return MachineSpec(
        name="testbed",
        description="unit-test machine",
        n_nodes=n_nodes,
        node=node,
        network=net,
        network_noise=noise,
        compute_noise_cov=0.0 if deterministic else 0.01,
    )


def xc_scale(n_nodes: int = 1024, *, deterministic: bool = True) -> MachineSpec:
    """A scale-study Cray-XC-like machine on a closed-form dragonfly.

    The machine for million-rank simulation: Aries-shaped dragonfly
    auto-sized to *n_nodes* (O(1) hop counts, no dense matrix),
    8-core nodes, deterministic by default so results are bit-reproducible
    and the sparse/aggregated kernels stay exact.  ``n_nodes=125_000``
    gives :math:`10^6` ranks with one rank per core.
    """
    from .noise import NoNoise

    node = NodeSpec(
        name="XC scale node",
        sockets=1,
        cores_per_socket=8,
        cpu_model="Intel Xeon E5-2670 @ 2.6 GHz",
        cpu_flops=0.1664e12,
        peak_flops=0.1664e12,
        mem_bytes=32 * 2**30,
        mem_bandwidth=51.2e9,
    )
    net = NetworkModel(
        topology=_sized_dragonfly(n_nodes),
        base_latency=1.10e-6,
        per_hop_latency=0.10e-6,
        bandwidth=10.0e9,
    )
    noise: NoiseModel = (
        NoNoise() if deterministic else LogNormalNoise(median=0.12e-6, sigma=0.70)
    )
    return MachineSpec(
        name="xc_scale",
        description="Cray-XC-like scale model, Aries dragonfly (simulated)",
        n_nodes=n_nodes,
        node=node,
        network=net,
        network_noise=noise,
        compute_noise_cov=0.0 if deterministic else 0.018,
        noisy_rank_factor=4.0,
        noisy_core_stride=24,
    )


MACHINES = {
    "piz_daint": piz_daint,
    "piz_dora": piz_dora,
    "pilatus": pilatus,
    "testbed": testbed,
    "xc_scale": xc_scale,
}


def get_machine(name: str, **kwargs) -> MachineSpec:
    """Instantiate a registered machine by name."""
    if name not in MACHINES:
        raise ValidationError(f"unknown machine {name!r}; have {sorted(MACHINES)}")
    return MACHINES[name](**kwargs)
