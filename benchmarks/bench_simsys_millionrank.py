"""Million-rank collectives under a hard heap cap.

The acceptance contract of the tiled v3 kernel path (docs/PERFORMANCE.md):
reduce, allreduce, and alltoall on a simulated XC-scale dragonfly machine
at 10⁶ ranks (10⁵ at quick fidelity) must complete with the Python heap
staying under a fixed ``tracemalloc`` cap — peak memory is O(tile), not
O(P·n) or O(P²) — while remaining bit-identical to the scalar
:class:`~repro.simsys.reference.ReferenceComm` oracle at small P.

Three things are measured and recorded into ``BENCH_repro.json``:

* per-collective wall time and throughput (ranks/s) at the headline P,
  with the tracemalloc peak in the metadata;
* the *dense-regime* speedup (vectorized vs. scalar reference at P = 256,
  where the materialized cached schedules are in play);
* the *sparse-regime* throughput at headline P (lazily generated rounds,
  streamed state tiles) — together these pin the two execution regimes the
  kernels switch between.

Override knobs: ``REPRO_BENCH_MR_P`` (rank count),
``REPRO_BENCH_MR_CAP_MB`` (heap cap), ``REPRO_BENCH_MR_OUT`` (alternate
suite file).  Full fidelity (``REPRO_BENCH_FULL=1``): P = 10⁶ under a
512 MiB cap; quick: P = 10⁵ under 256 MiB.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
from _bench_utils import fidelity, record_bench

from repro.report import render_table
from repro.simsys.machine import xc_scale
from repro.simsys.mpi import SimComm
from repro.simsys.reference import ReferenceComm

P_MAIN = int(os.environ.get("REPRO_BENCH_MR_P", fidelity(1_000_000, 100_000)))
CAP_MB = int(os.environ.get("REPRO_BENCH_MR_CAP_MB", fidelity(512, 256)))
OUT_PATH = os.environ.get("REPRO_BENCH_MR_OUT") or None
N_REPS = 2
P_DENSE = 256  # dense-regime comparison point (cached schedules)
DENSE_REPS = 60
SEED = 2026


def build_millionrank():
    """Run the capped large-P phases plus the two-regime comparison."""
    cores = 8  # xc_scale node width
    n_nodes = -(-P_MAIN // cores)
    machine = xc_scale(n_nodes, deterministic=True)
    comm = SimComm(machine, P_MAIN, placement="packed", seed=SEED)

    walls: dict[str, float] = {}
    checks: dict[str, float] = {}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        red = comm.reduce(8, N_REPS)
        walls["reduce"] = time.perf_counter() - start

        start = time.perf_counter()
        allred = comm.allreduce(8, N_REPS)
        walls["allreduce"] = time.perf_counter() - start

        start = time.perf_counter()
        a2a = comm.alltoall(8, N_REPS)  # auto-aggregated above threshold
        walls["alltoall"] = time.perf_counter() - start
    finally:
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    checks["root_reduce_s"] = float(red[0, 0])
    checks["allreduce_max_s"] = float(allred.max())
    checks["alltoall_mean_s"] = float(a2a.mean())
    del red, allred, a2a

    # -- small-P parity: the scale path must not have forked the physics.
    small = xc_scale(64, deterministic=True)
    v = SimComm(small, 24, seed=3)
    r = ReferenceComm(small, 24, seed=3)
    parity = bool(
        np.array_equal(v.reduce(8, 4), r.reduce(8, 4))
        and np.array_equal(v.allreduce(8, 4), r.allreduce(8, 4))
        and np.array_equal(v.alltoall(8, 4, aggregated=False), r.alltoall(8, 4))
    )

    # -- dense regime: vectorized vs. scalar reference at cached-schedule P.
    dense_m = xc_scale(P_DENSE // cores, deterministic=True)
    start = time.perf_counter()
    SimComm(dense_m, P_DENSE, seed=SEED).reduce(8, DENSE_REPS)
    dense_vec = time.perf_counter() - start
    start = time.perf_counter()
    ReferenceComm(dense_m, P_DENSE, seed=SEED).reduce(8, DENSE_REPS)
    dense_ref = time.perf_counter() - start
    speedup = dense_ref / dense_vec

    peak_mb = round(peak_bytes / 2**20, 2)
    for phase, wall in walls.items():
        record_bench(
            "simsys_millionrank",
            {"phase": phase, "nprocs": P_MAIN, "reps": N_REPS, "cap_mb": CAP_MB},
            [wall],
            metadata={
                "peak_mb": peak_mb,
                "ranks_per_second": round(P_MAIN * N_REPS / wall, 1),
                "regime": "sparse",
            },
            path=OUT_PATH,
        )
    record_bench(
        "simsys_millionrank",
        {"phase": "reduce", "nprocs": P_DENSE, "reps": DENSE_REPS,
         "cap_mb": CAP_MB},
        [dense_vec],
        metadata={
            "regime": "dense",
            "speedup_vs_reference": round(speedup, 2),
            "reference_wall_s": round(dense_ref, 4),
        },
        path=OUT_PATH,
    )
    return {
        "walls": walls,
        "checks": checks,
        "peak_bytes": peak_bytes,
        "cap_bytes": CAP_MB << 20,
        "parity": parity,
        "dense_speedup": speedup,
    }


def render(out) -> str:
    rows = [
        [phase, f"{wall:.2f}", f"{P_MAIN * N_REPS / wall:,.0f}"]
        for phase, wall in out["walls"].items()
    ]
    rows.append(
        ["reduce@256 (dense)", "-", f"speedup x{out['dense_speedup']:.1f}"]
    )
    return render_table(
        ["collective", "wall time (s)", "ranks/s"],
        rows,
        title=(
            f"Million-rank kernels: P={P_MAIN:,}, {N_REPS} reps, "
            f"heap peak {out['peak_bytes'] / 2**20:.0f} MiB "
            f"(cap {CAP_MB} MiB), small-P parity "
            f"{'OK' if out['parity'] else 'FAILED'}"
        ),
    )


def test_simsys_millionrank(benchmark, record_result):
    out = benchmark.pedantic(build_millionrank, rounds=1, iterations=1)
    record_result("simsys_millionrank", render(out))

    # The headline contract: huge P under the fixed heap cap.
    assert out["peak_bytes"] < out["cap_bytes"]
    # The fast path is still the same simulator: bit-identical at small P.
    assert out["parity"]
    # Completion times are physical: positive, finite, ordered sanely
    # (allreduce's exchange rounds cost at least a reduce's tree).
    c = out["checks"]
    assert 0 < c["root_reduce_s"] < 1.0
    assert c["allreduce_max_s"] >= c["root_reduce_s"] * 0.5
    assert np.isfinite(c["alltoall_mean_s"]) and c["alltoall_mean_s"] > 0
    # Vectorized dense-regime kernels beat the scalar reference.
    assert out["dense_speedup"] > 1.0
