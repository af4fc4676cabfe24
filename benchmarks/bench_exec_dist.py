"""Distributed backend: coordinator overhead and scaling vs serial.

Runs the same wall-clock-bound campaign as ``bench_exec_scaling``
through :class:`~repro.exec.SerialExecutor` and the socket-sharded
:class:`~repro.exec.DistExecutor` (which :class:`~repro.exec.ProcessExecutor`
is, with forked workers), plus one *overhead* campaign whose
measurements are instant — so the dist row isolates what the
coordinator itself costs per task (frame encode, socket round trip,
scheduler tick) rather than how well waiting overlaps.

Recorded as :class:`repro.compare.BenchRecord` runs in
``BENCH_repro.json``:

* ``exec_dist_campaign`` — wall time per engine for the waiting
  campaign (``engine`` is ``serial`` / ``dist``);
* ``exec_dist_overhead`` — per-task dispatch seconds for the instant
  campaign on the dist backend.

Acceptance (asserted here, mirrored in docs/EXEC.md): the dist backend
overlaps waiting at least 2x vs serial with 4 workers, its datasets are
bit-identical to serial, and coordinator overhead stays under 25 ms per
task at reduced fidelity.
"""

from __future__ import annotations

import time

import numpy as np
from _bench_utils import record_bench

from repro.core import Experiment, Factor, FactorialDesign
from repro.exec import DistExecutor, ExecHooks, SerialExecutor
from repro.report import render_table

TASK_SECONDS = 0.08
N_POINTS = 8
WORKERS = 4


def waiting_measure(point, rep, rng):
    """A wall-clock-bound measurement (the system under test 'runs')."""
    time.sleep(TASK_SECONDS)
    return rng.lognormal(mean=0.1 * float(point["p"]), sigma=0.2, size=16)


def instant_measure(point, rep, rng):
    """A free measurement: any wall time is pure dispatch overhead."""
    return rng.lognormal(mean=0.1 * float(point["p"]), sigma=0.2, size=16)


def make_experiment(measure=waiting_measure):
    return Experiment(
        name="exec-dist",
        design=FactorialDesign(
            (Factor("p", tuple(2**k for k in range(N_POINTS))),),
        ),
        measure=measure,
        unit="us",
        seed=42,
    )


def run_campaign(executor, measure=waiting_measure):
    hooks = ExecHooks()
    start = time.perf_counter()
    result = make_experiment(measure).run(executor=executor, hooks=hooks)
    return result, time.perf_counter() - start, hooks


def build_dist(*, out=None):
    serial_res, serial_s, _ = run_campaign(SerialExecutor(retries=0))
    with DistExecutor(workers=WORKERS, spawn="fork") as dist:
        dist_res, dist_s, _ = run_campaign(dist)

    # Coordinator overhead: an instant campaign's wall time is all
    # dispatch.  Serial is the floor; the difference, per task, is what
    # the coordinator's frames + scheduler cost on top.
    _, base_s, _ = run_campaign(SerialExecutor(retries=0), instant_measure)
    with DistExecutor(workers=WORKERS, spawn="fork") as dist:
        _, odist_s, _ = run_campaign(dist, instant_measure)
    per_task_overhead = max(odist_s - base_s, 0.0) / N_POINTS

    for engine, wall in (("serial", serial_s), ("dist", dist_s)):
        record_bench(
            "exec_dist_campaign",
            {"engine": engine, "points": N_POINTS, "workers": WORKERS},
            [wall],
            metadata={"task_seconds": TASK_SECONDS},
            path=out,
        )
    record_bench(
        "exec_dist_overhead",
        {"points": N_POINTS, "workers": WORKERS},
        [per_task_overhead],
        metadata={"note": "per-task dispatch seconds, instant campaign"},
        path=out,
    )
    return {
        "serial": (serial_res, serial_s),
        "dist": (dist_res, dist_s),
        "overhead": per_task_overhead,
    }


def render(out) -> str:
    _, serial_s = out["serial"]
    _, dist_s = out["dist"]
    rows = [
        ["serial", f"{serial_s:.3f}", "1.00x"],
        [f"dist ({WORKERS} socket workers)", f"{dist_s:.3f}",
         f"{serial_s / dist_s:.2f}x"],
        ["dist dispatch overhead / task",
         f"{out['overhead'] * 1e3:.2f} ms", "-"],
    ]
    return render_table(
        ["engine", "wall time (s)", "speedup"],
        rows,
        title=(
            f"Distributed backend: {N_POINTS}-point campaign, "
            f"{TASK_SECONDS * 1e3:.0f} ms per measurement"
        ),
    )


def test_exec_dist(benchmark, record_result):
    out = benchmark.pedantic(build_dist, rounds=1, iterations=1)
    record_result("exec_dist", render(out))

    serial_res, serial_s = out["serial"]
    dist_res, dist_s = out["dist"]
    assert serial_s / dist_s >= 2.0
    assert serial_res.run_order == dist_res.run_order
    for key, ms in serial_res.datasets.items():
        assert np.array_equal(ms.values, dist_res.datasets[key].values)
    assert out["overhead"] < 0.025
