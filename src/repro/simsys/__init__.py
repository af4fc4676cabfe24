"""Simulated parallel-machine substrate.

The paper measured Cray XC30/XC40 systems and an InfiniBand cluster; those
machines are not available, so this package provides calibrated simulations
(see DESIGN.md for the substitution table): machine/network models, noise
models, per-process clocks, a discrete-event core, a simulated MPI
communicator whose collective timings emerge from real tree algorithms, and
the HPL / π / STREAM workload models used by the figures.
"""

from .rng import stream, RngFactory
from .clock import SimClock, perfect_clock, realistic_clock
from .noise import (
    NoiseModel,
    NoNoise,
    GaussianNoise,
    LogNormalNoise,
    ExponentialSpikes,
    PeriodicInterrupts,
    MixtureNoise,
    CompositeNoise,
    scaled,
    sample_block,
)
from .machine import (
    NodeSpec,
    MachineSpec,
    piz_daint,
    piz_dora,
    pilatus,
    testbed,
    xc_scale,
    MACHINES,
    get_machine,
)
from .network import (
    Topology,
    Dragonfly,
    FatTree,
    dragonfly,
    fat_tree,
    single_switch,
    NetworkModel,
)
from .events import EventQueue
from .schedules import (
    KERNEL_VERSION,
    CompiledSchedule,
    Round,
    ScheduleSpec,
    schedule_spec,
    iter_rounds,
    compile_allreduce,
    compile_alltoall,
    compile_barrier,
    compile_bcast,
    compile_neighbor,
    compile_reduce,
    compile_scan,
)
from .mpi import SimComm, SkewModel, reduce_schedule
from .energy import PowerModel
from .noisebench import FWQResult, fixed_work_quantum, detour_spectrum, dominant_period
from .cache import CacheModel, CachedKernel
from .timeline import VariabilityTimeline
from .workloads import (
    hpl_flops,
    HPLModel,
    reduction_overhead_piz_daint,
    PiWorkload,
    StreamWorkload,
    GpuNodeSkew,
)

__all__ = [
    "stream",
    "RngFactory",
    "SimClock",
    "perfect_clock",
    "realistic_clock",
    "NoiseModel",
    "NoNoise",
    "GaussianNoise",
    "LogNormalNoise",
    "ExponentialSpikes",
    "PeriodicInterrupts",
    "MixtureNoise",
    "CompositeNoise",
    "scaled",
    "sample_block",
    "NodeSpec",
    "MachineSpec",
    "piz_daint",
    "piz_dora",
    "pilatus",
    "testbed",
    "xc_scale",
    "MACHINES",
    "get_machine",
    "Topology",
    "Dragonfly",
    "FatTree",
    "dragonfly",
    "fat_tree",
    "single_switch",
    "NetworkModel",
    "EventQueue",
    "SimComm",
    "SkewModel",
    "reduce_schedule",
    "KERNEL_VERSION",
    "CompiledSchedule",
    "Round",
    "ScheduleSpec",
    "schedule_spec",
    "iter_rounds",
    "compile_reduce",
    "compile_bcast",
    "compile_allreduce",
    "compile_alltoall",
    "compile_barrier",
    "compile_neighbor",
    "compile_scan",
    "hpl_flops",
    "HPLModel",
    "reduction_overhead_piz_daint",
    "PiWorkload",
    "StreamWorkload",
    "GpuNodeSkew",
    "PowerModel",
    "FWQResult",
    "fixed_work_quantum",
    "detour_spectrum",
    "dominant_period",
    "CacheModel",
    "CachedKernel",
    "VariabilityTimeline",
]
