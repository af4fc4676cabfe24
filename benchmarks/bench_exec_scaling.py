"""Execution-engine scaling: serial vs parallel campaign throughput.

Runs one 8-point campaign three ways and proves the engine's three
contracts at once:

* **speedup** — a :class:`~repro.exec.ProcessExecutor` with 4 workers
  finishes the wall-clock-bound campaign at least 2x faster than the
  :class:`~repro.exec.SerialExecutor` (each measurement *waits* on the
  simulated system under test, like a real benchmark waits on the
  network, so overlap is what parallel execution buys);
* **determinism** — serial and parallel datasets are bit-identical, the
  :meth:`numpy.random.SeedSequence.spawn` seeding contract;
* **caching** — re-running the campaign against the warm result cache
  performs zero new measurements (verified by the metrics-hook counter).

Each engine's campaign wall time is recorded as a
:class:`repro.compare.BenchRecord` run in ``BENCH_simsys.json``, so the
execution engine sits in the same ``repro compare`` trajectory as the
simulator kernels.
"""

from __future__ import annotations

import time

import numpy as np
from _bench_utils import record_bench

from repro.core import Experiment, Factor, FactorialDesign
from repro.exec import ExecHooks, ProcessExecutor, ResultCache, SerialExecutor
from repro.report import render_table

# Each task blocks ~TASK_SECONDS on the (simulated) system under test and
# then draws its values from the engine-derived rng.  8 points x 1 rep at
# 0.08 s each: ~0.64 s serial floor, ~0.16 s ideal on 4 workers.
TASK_SECONDS = 0.08
N_POINTS = 8
WORKERS = 4


def waiting_measure(point, rep, rng):
    """A wall-clock-bound measurement (the system under test 'runs')."""
    time.sleep(TASK_SECONDS)
    return rng.lognormal(mean=0.1 * float(point["p"]), sigma=0.2, size=16)


def make_experiment():
    return Experiment(
        name="exec-scaling",
        design=FactorialDesign(
            (Factor("p", tuple(2**k for k in range(N_POINTS))),),
        ),
        measure=waiting_measure,
        unit="us",
        seed=42,
    )


def run_campaign(executor, cache=None):
    hooks = ExecHooks()
    start = time.perf_counter()
    result = make_experiment().run(executor=executor, cache=cache, hooks=hooks)
    return result, time.perf_counter() - start, hooks


def build_scaling(tmp_dir, *, out=None):
    serial_res, serial_s, serial_hooks = run_campaign(SerialExecutor(retries=0))
    parallel_res, parallel_s, parallel_hooks = run_campaign(
        ProcessExecutor(max_workers=WORKERS)
    )
    cache = ResultCache(tmp_dir)
    _, cold_s, cold_hooks = run_campaign(SerialExecutor(retries=0), cache=cache)
    warm_res, warm_s, warm_hooks = run_campaign(
        SerialExecutor(retries=0), cache=cache
    )
    # One run (single wall-time sample) per engine per invocation; runs
    # accumulate across invocations into the comparison trajectory.
    for engine, wall in (
        ("serial", serial_s),
        ("process", parallel_s),
        ("serial_cold_cache", cold_s),
        ("serial_warm_cache", warm_s),
    ):
        record_bench(
            "exec_campaign",
            {"engine": engine, "points": N_POINTS, "workers": WORKERS},
            [wall],
            metadata={"task_seconds": TASK_SECONDS},
            path=out,
        )
    return {
        "serial": (serial_res, serial_s, serial_hooks),
        "parallel": (parallel_res, parallel_s, parallel_hooks),
        "cold": (cold_s, cold_hooks),
        "warm": (warm_res, warm_s, warm_hooks),
    }


def render(out) -> str:
    serial_res, serial_s, _ = out["serial"]
    _, parallel_s, _ = out["parallel"]
    cold_s, _ = out["cold"]
    _, warm_s, warm_hooks = out["warm"]
    rows = [
        ["serial", f"{serial_s:.3f}", "1.00x", "8 measured"],
        [
            f"ProcessExecutor ({WORKERS} workers)",
            f"{parallel_s:.3f}",
            f"{serial_s / parallel_s:.2f}x",
            "8 measured",
        ],
        ["serial, cold cache", f"{cold_s:.3f}", f"{serial_s / cold_s:.2f}x",
         "8 measured"],
        ["serial, warm cache", f"{warm_s:.3f}", f"{serial_s / warm_s:.2f}x",
         f"{warm_hooks.cached} cached, {warm_hooks.completed} measured"],
    ]
    return render_table(
        ["engine", "wall time (s)", "speedup", "work"],
        rows,
        title=(
            f"Execution engine: {N_POINTS}-point campaign, "
            f"{TASK_SECONDS * 1e3:.0f} ms per measurement"
        ),
    )


def test_exec_scaling(benchmark, record_result, tmp_path):
    out = benchmark.pedantic(build_scaling, args=(tmp_path,), rounds=1,
                             iterations=1)
    record_result("exec_scaling", render(out))

    serial_res, serial_s, _ = out["serial"]
    parallel_res, parallel_s, _ = out["parallel"]
    # The tentpole acceptance bar: >= 2x with 4 workers on 8 points.
    assert serial_s / parallel_s >= 2.0
    # Determinism: bit-identical datasets whichever engine measured them.
    assert serial_res.run_order == parallel_res.run_order
    for key, ms in serial_res.datasets.items():
        assert np.array_equal(ms.values, parallel_res.datasets[key].values)

    # Warm cache: the second identical campaign measures nothing.
    warm_res, _, warm_hooks = out["warm"]
    assert warm_hooks.completed == 0 and warm_hooks.submitted == 0
    assert warm_hooks.cached == N_POINTS
    for key, ms in serial_res.datasets.items():
        assert np.array_equal(ms.values, warm_res.datasets[key].values)
