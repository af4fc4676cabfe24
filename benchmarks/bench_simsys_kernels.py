"""Vectorized vs reference collective kernels: wall-time comparison.

Times the round-batched numpy kernels of :class:`~repro.simsys.SimComm`
against the scalar :class:`~repro.simsys.reference.ReferenceComm` oracle
and records the raw per-iteration timings as
:class:`repro.compare.BenchRecord` runs (``kernel=vectorized`` and
``kernel=reference``) in ``BENCH_repro.json`` at the repo root
(machine-readable, merged across runs) plus a human-readable table
through ``record_result`` (``benchmarks/results/`` at full fidelity).

Two machines separate the two cost regimes (see docs/PERFORMANCE.md):

* ``piz_daint`` — the paper's noisy machine.  Per-element noise sampling
  is a shared floor for both kernels, so the honest speedup here is
  modest (~1.5-2x at P=1024);
* ``testbed_det`` — a deterministic (noise-free) machine where Python
  dispatch and column-strided access are the reference path's whole cost.
  This is the regime vectorization targets, and where the >= 5x gate for
  ``reduce`` at P=1024, n=1000 applies.

Runs two ways:

* under the pytest benchmark harness (``pytest benchmarks/``), at the
  fidelity chosen by ``REPRO_BENCH_FULL``;
* standalone, as the CI smoke gate::

      PYTHONPATH=src python benchmarks/bench_simsys_kernels.py --quick

  which exits non-zero if the vectorized kernel is ever slower than the
  reference path at P >= 256 (and, without ``--quick``, if the reduce
  speedup at P=1024, n=1000 on the deterministic machine falls below 5x).

For the ``repro compare`` regression gate, ``--out`` redirects the suite
file (so CI never dirties the committed baseline), ``--runs`` appends
several independent runs in one invocation (giving the Kalibera–Jones
estimator run-level replication), and ``--scale-wall 1.5`` multiplies
every recorded timing — the injected known regression used to prove the
gate trips (docs/COMPARE.md).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
from _bench_utils import fidelity, record_bench

from repro.simsys import SimComm, piz_daint, testbed
from repro.simsys.reference import ReferenceComm

#: (label, factory) pairs: 128 XC30 nodes x 8 cores and 256 testbed
#: nodes x 4 cores both give 1024 packed ranks at the largest sweep point.
MACHINES = (
    ("piz_daint", lambda: piz_daint(128)),
    ("testbed_det", lambda: testbed(256, deterministic=True)),
)

OPS = ("reduce", "bcast", "allreduce")

#: Timed iterations per run: the within-run replication level of the
#: recorded BenchRecord (runs come from --runs / repeated invocations).
ITERATIONS = 3


def _time_op(machine, op: str, nprocs: int, n: int, kernel: str,
             seed: int = 0, iterations: int = ITERATIONS) -> list[float]:
    """Per-iteration wall times of one (machine, op, P, kernel) config.

    One untimed warm-up call precedes the timed iterations so one-time
    costs (noise-table and batch-cache construction) don't pollute the
    recorded samples — the timings should measure the steady state the
    speedup claims are about.  *kernel* is the record label:
    ``"reference"`` times :class:`ReferenceComm`, ``"vectorized"``
    times :class:`SimComm`.
    """
    cls = ReferenceComm if kernel == "reference" else SimComm
    args = (8, n)
    warm = cls(machine, nprocs, placement="packed", seed=seed)
    getattr(warm, op)(*args)
    times = []
    for it in range(iterations):
        comm = cls(machine, nprocs, placement="packed", seed=seed + it)
        start = time.perf_counter()
        out = getattr(comm, op)(*args)
        times.append(time.perf_counter() - start)
        assert out.shape == (n, nprocs) and np.isfinite(out).all()
    return times


def run_suite(process_counts, n: int, ops=OPS, *, runs: int = 1,
              scale_wall: float = 1.0, out=None):
    """Time every (machine, op, P) triple under both kernels; returns rows.

    Each of the *runs* repetitions appends one run of ``ITERATIONS`` raw
    timings per kernel to the suite file (``out`` or the repo-root
    ``BENCH_repro.json``); *scale_wall* multiplies recorded timings to
    inject a known regression.  The returned rows summarize the mean
    walls for the human-readable table and the smoke gates.
    """
    rows = []
    for label, factory in MACHINES:
        machine = factory()
        for op in ops:
            for nprocs in process_counts:
                params = {"machine": label, "P": nprocs, "n": n}
                ref_runs, vec_runs = [], []
                for run in range(runs):
                    ref = _time_op(machine, op, nprocs, n, "reference",
                                   seed=run * ITERATIONS)
                    vec = _time_op(machine, op, nprocs, n, "vectorized",
                                   seed=run * ITERATIONS)
                    record_bench(
                        op, {**params, "kernel": "reference"},
                        [t * scale_wall for t in ref], path=out,
                    )
                    record_bench(
                        op, {**params, "kernel": "vectorized"},
                        [t * scale_wall for t in vec], path=out,
                    )
                    ref_runs.extend(ref)
                    vec_runs.extend(vec)
                ref_mean = float(np.mean(ref_runs))
                vec_mean = float(np.mean(vec_runs))
                rows.append({
                    "op": op,
                    "machine": label,
                    "P": int(nprocs),
                    "n": int(n),
                    "kernel": "vectorized",
                    "wall_s": vec_mean,
                    "reference_wall_s": ref_mean,
                    "speedup_vs_reference": (
                        ref_mean / vec_mean if vec_mean > 0 else float("inf")
                    ),
                })
    return rows


def render(rows) -> str:
    lines = [
        f"{'machine':<12} {'op':<10} {'P':>5} {'n':>6} {'reference (s)':>14} "
        f"{'vectorized (s)':>15} {'speedup':>8}"
    ]
    for r in rows:
        lines.append(
            f"{r['machine']:<12} {r['op']:<10} {r['P']:>5} {r['n']:>6} "
            f"{r['reference_wall_s']:>14.4f} {r['wall_s']:>15.4f} "
            f"{r['speedup_vs_reference']:>7.1f}x"
        )
    return "\n".join(lines)


def check_gates(rows, *, require_5x_at_1024: bool) -> list[str]:
    """The CI pass/fail conditions; returns a list of failure messages."""
    failures = []
    for r in rows:
        if r["P"] >= 256 and r["speedup_vs_reference"] < 1.0:
            failures.append(
                f"{r['op']} on {r['machine']} at P={r['P']}: vectorized slower "
                f"than reference ({r['wall_s']:.4f}s vs {r['reference_wall_s']:.4f}s)"
            )
    if require_5x_at_1024:
        for r in rows:
            if (
                r["machine"] == "testbed_det"
                and r["op"] == "reduce"
                and r["P"] == 1024
                and r["speedup_vs_reference"] < 5.0
            ):
                failures.append(
                    f"reduce on testbed_det at P=1024: speedup "
                    f"{r['speedup_vs_reference']:.1f}x < 5x"
                )
    return failures


def test_simsys_kernel_speedup(benchmark, record_result):
    n = fidelity(1000, 100)
    rows = benchmark.pedantic(
        lambda: run_suite((64, 256, 1024), n), rounds=1, iterations=1
    )
    record_result("simsys_kernel_speedup", render(rows))
    assert not check_gates(rows, require_5x_at_1024=(n >= 1000))
    # Even at reduced fidelity the batched kernels should win big where
    # dispatch dominates.
    by_key = {(r["machine"], r["op"], r["P"]): r for r in rows}
    assert by_key[("testbed_det", "reduce", 1024)]["speedup_vs_reference"] > 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke fidelity (n=100) and skip the 5x-at-P=1024 requirement",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="independent runs to append per configuration (default 1)",
    )
    parser.add_argument(
        "--scale-wall", type=float, default=1.0, metavar="FACTOR",
        help="multiply recorded wall times by FACTOR (injects a known "
             "regression for gate proofs; default 1.0)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the BenchRecord suite to PATH instead of the repo-root "
             "BENCH_repro.json",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="record timings but skip the point-estimate speedup gates "
             "(used when `repro compare` is the gate; implied by "
             "--scale-wall != 1)",
    )
    args = parser.parse_args(argv)
    n = 100 if args.quick else 1000
    rows = run_suite((64, 256, 1024), n, runs=args.runs,
                     scale_wall=args.scale_wall, out=args.out)
    print(render(rows))
    if args.no_gate or args.scale_wall != 1.0:
        failures = []
    else:
        failures = check_gates(rows, require_5x_at_1024=not args.quick)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    target = args.out or "BENCH_repro.json"
    print(f"results merged into {target} ({len(rows)} configurations x "
          f"{args.runs} run(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
