"""The benchmark's three workloads: inputs made from a seed, and the
measure functions the campaigns run.

Every workload drives the same pipeline (campaign -> rerun -> analyze ->
render -> serve) over different inputs, chosen so that a different layer
does most of the work:

* ``collectives`` -- simulated reduce/allreduce/alltoall at 64 to 1000
  processes on ``ProcessExecutor(max_workers=1)``.  The ``simsys`` kernels
  do nearly all the work; cache, store and record do almost none.
* ``fanout`` -- 192 tiny design points on
  ``DistExecutor(workers=1, spawn="fork")``.  Fixed per-task and
  per-dataset costs dominate: frame encode/decode, fingerprinting, one
  cache file per task, and ``Campaign.record`` rewriting the index once
  per dataset.
* ``pipeline`` -- 20 ping-pong tasks of 50k values on ``SerialExecutor``
  with spilling to the shard store, so cache, store, stats, registry and
  serve do the work.

One executor worker and one client connection: the benchmark host has
two cores, shared with other machines' work, and load from more
processes at once would measure its scheduler rather than the program.

The seed changes only random streams (task seeds, request order), never
the amount of work, so runs with different seeds stay comparable.
Measure functions are module-level so worker processes can unpickle them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

#: When set, measure functions append one JSON line per task to
#: ``<dir>/simsys-<pid>.jsonl`` with their busy time.  An environment
#: variable rather than an argument: executor workers inherit it, and the
#: program under test never sees it.
SIMSYS_LOG_ENV = "PERFBENCH_SIMSYS_LOG"

WORKLOADS = ("collectives", "fanout", "pipeline")

#: Figures the serve burst requests.  Quick builds of these cost 10-200 ms
#: each, so the cold renders that open the burst are long enough to time.
SIMULATED_FIGURES = (
    "fig7c_distribution",
    "fig5_reduce",
    "scale_collectives",
    "fig6_rank_variation",
    "fig1_hpl",
    "chaos_degradation",
)
CAMPAIGN_FIGURE = "campaign_trajectory"

#: Request mix of the warm burst: (class, share).
REQUEST_MIX = (("figure", 0.70), ("revalidate", 0.15), ("campaign", 0.10),
               ("catalog", 0.05))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of a workload's campaign."""

    name: str
    factors: tuple[tuple[str, tuple], ...]
    replications: int
    measure: Callable
    unit: str = "us"


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything a repetition needs to run one workload."""

    name: str
    executor: str  # "process", "dist" or "serial"
    workers: int
    experiments: tuple[ExperimentSpec, ...]
    spill_rows: int | None
    seed: int
    #: Warm-burst requests per cycle (a run pools all its cycles).
    burst_requests: int
    #: Passes of each warm phase (rerun, analyze) per cycle; the median is
    #: reported (one pass over a small campaign is too short to
    #: time steadily).
    warm_passes: int = 1
    #: Cold cycles per repetition, each on a fresh campaign and figure
    #: cache: more samples per interpreter launch.
    cycles: int = 3
    requests: tuple[tuple[str, str, bool], ...] = field(default=(), repr=False)

    @property
    def tasks(self) -> int:
        total = 0
        for exp in self.experiments:
            points = 1
            for _, levels in exp.factors:
                points *= len(levels)
            total += points * exp.replications
        return total


def make_workload(name: str, seed: int, *, tiny: bool = False) -> WorkloadSpec:
    """The inputs of workload *name* for *seed* (``tiny`` for smoke tests)."""
    if name == "collectives":
        ps = (64, 128, 256, 512, 1000)
        a2a = (64, 96, 192, 256)
        reps = 2
        if tiny:
            ps, a2a, reps = (64, 96), (64,), 1
        experiments = (
            ExperimentSpec("tree-collectives",
                           (("op", ("reduce", "allreduce")), ("procs", ps)),
                           reps, measure_collective),
            ExperimentSpec("alltoall",
                           (("op", ("alltoall",)), ("procs", a2a)),
                           reps, measure_collective),
        )
        # Requests are cheap here, so a longer burst: p99 rests on the
        # slower catalog and campaign requests, 15% of the mix.
        spec = WorkloadSpec(name, "process", 1, experiments, None, seed,
                            burst_requests=20 if tiny else 150, warm_passes=5)
    elif name == "fanout":
        sizes = tuple(int(8 * 2 ** (i / 2)) for i in range(16))
        pairs = tuple(range(6))
        if tiny:
            sizes, pairs = sizes[:4], pairs[:3]
        experiments = (
            ExperimentSpec("fanout", (("bytes", sizes), ("pair", pairs)), 1,
                           measure_fanout),
        )
        spec = WorkloadSpec(name, "dist", 1, experiments, None, seed,
                            burst_requests=20 if tiny else 120)
    elif name == "pipeline":
        sizes = tuple(int(8 * 2 ** (i / 2)) for i in range(20))
        if tiny:
            sizes = sizes[:4]
        experiments = (
            ExperimentSpec("pingpong", (("bytes", sizes),), 1, measure_pingpong),
        )
        # Two cycles: this workload's repetitions are the longest.
        spec = WorkloadSpec(name, "serial", 1, experiments,
                            2_000 if tiny else 10_000, seed,
                            burst_requests=20 if tiny else 100, cycles=2)
    else:
        raise ValueError(f"unknown workload {name!r}; have {list(WORKLOADS)}")
    return _with_requests(replace(spec, cycles=2) if tiny else spec)


def _with_requests(spec: WorkloadSpec) -> WorkloadSpec:
    """Attach the seeded warm-burst request sequence.

    Each request is ``(class, path, stale)``; ``stale`` marks the
    revalidations that send a wrong ``If-None-Match`` tag and must get a
    full 200 response instead of a 304.  Every seed gets the same
    requests, exactly in the mix's proportions, in its own order, so the
    seed never changes how much work a burst is.
    """
    n = spec.burst_requests
    counts = {cls: round(share * n) for cls, share in REQUEST_MIX}
    counts["figure"] += n - sum(counts.values())
    formats = ("vl.json", "json", "html")
    requests = []
    for cls, count in counts.items():
        for i in range(count):
            if cls == "catalog":
                requests.append((cls, "/figures", False))
                continue
            if cls == "campaign":
                fig, fmt = CAMPAIGN_FIGURE, formats[i % len(formats)]
            else:
                k = len(SIMULATED_FIGURES)
                fig, fmt = SIMULATED_FIGURES[i % k], formats[(i // k) % len(formats)]
            stale = cls == "revalidate" and i % 5 == 0
            requests.append((cls, f"/figures/{fig}.{fmt}", stale))
    order = np.random.default_rng([spec.seed, 0xB0257]).permutation(n)
    return replace(spec, requests=tuple(requests[i] for i in order))


# ---------------------------------------------------------------------------
# Measure functions (run inside executor workers)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _machine(kind: str, nodes: int):
    from repro.simsys.machine import piz_daint, piz_dora

    return piz_daint(nodes) if kind == "daint" else piz_dora(nodes)


def _log_busy(calls: int, simsys_s: float, values: int, measure_s: float) -> None:
    log_dir = os.environ.get(SIMSYS_LOG_ENV)
    if not log_dir:
        return
    line = json.dumps({"calls": calls, "busy_s": simsys_s, "values": values,
                       "measure_s": measure_s}) + "\n"
    fd = os.open(os.path.join(log_dir, f"simsys-{os.getpid()}.jsonl"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def measure_collective(point, rep, rng):
    """Completion times (us) of 32 simulated collectives on Piz Daint."""
    from repro.simsys.mpi import SimComm

    t0 = time.perf_counter()
    procs = int(point["procs"])
    machine = _machine("daint", -(-procs // 8))
    comm = SimComm(machine, procs, placement="packed",
                   seed=int(rng.integers(2**32)))
    t1 = time.perf_counter()
    times = getattr(comm, point["op"])(8, 32)
    t2 = time.perf_counter()
    values = times.max(axis=1) * 1e6
    _log_busy(1, t2 - t1, values.size, time.perf_counter() - t0)
    return values


def measure_fanout(point, rep, rng):
    """Eight ping-pong latencies (us) between one pair of Piz Dora nodes."""
    return _pingpong(int(point["bytes"]), 8, rng)


def measure_pingpong(point, rep, rng):
    """20k ping-pong latencies (us) on Piz Dora."""
    return _pingpong(int(point["bytes"]), 20_000, rng)


def _pingpong(size: int, n: int, rng) -> np.ndarray:
    from repro.simsys.mpi import SimComm

    t0 = time.perf_counter()
    comm = SimComm(_machine("dora", 2), 2, placement="one_per_node",
                   seed=int(rng.integers(2**32)))
    t1 = time.perf_counter()
    values = comm.ping_pong(size, n) * 1e6
    t2 = time.perf_counter()
    _log_busy(1, t2 - t1, values.size, time.perf_counter() - t0)
    return values
