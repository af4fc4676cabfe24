"""Cold vs. cached render cost of the figure registry.

The acceptance contract of the content-addressed cache
(docs/REPORT.md): a second render of a figure with unchanged inputs
must skip the builder entirely, so its cost is file-stat plus path
construction — orders of magnitude below the cold build.  This bench
times both paths for a pair of registry figures (a cheap one and a
simulation-heavy one) and records the samples into
``BENCH_repro.json`` so ``repro compare`` flags a cache regression
(e.g. a key accidentally depending on wall-clock) as a slowdown.

A third record, ``report_campaign_request``, times a warm
``handle_request`` GET of ``campaign_trajectory.json`` on a campaign
whose datasets spilled to its shard store: every such request keys the
figure on the campaign's content (``campaign_digest``), so this is the
cost a dashboard pays per re-served campaign figure.  It runs twice: on
20 datasets of 20k values spilled to the store, and on the shape of
perfbench's ``fanout`` campaign, 96 unspilled datasets of 8 values,
where keying used to read every dataset file.

A fourth record, ``campaign_rerun``, times ``Campaign.run(overwrite=True)``
on a cache-warm campaign whose task results and datasets spill to its
shard store: every task is a cache hit answered by a memory-mapped
column, so this is the cost of re-assembling and re-recording the
datasets — the rerun the paper's repeat-and-report workflow makes most.

Override knobs: ``REPRO_BENCH_REGISTRY_OUT`` (alternate suite file).
Full fidelity (``REPRO_BENCH_FULL=1``) renders at paper sample sizes;
quick uses the registry's built-in quick params.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np
from _bench_utils import FULL, record_bench

from repro.core import Campaign, Experiment, Factor, FactorialDesign, MeasurementSet
from repro.exec import ExecHooks
from repro.report import render_table
from repro.report.registry import FigureService
from repro.serve import handle_request

OUT_PATH = os.environ.get("REPRO_BENCH_REGISTRY_OUT") or None
FIGURES = ("fig7ab_bounds", "fig6_rank_variation")
CACHED_REPS = 50
SEED = 2026

#: Shape of the spilled campaign behind ``report_campaign_request``.
CAMPAIGN_DATASETS = 20
CAMPAIGN_VALUES = 20_000
CAMPAIGN_SPILL_ROWS = 1_000
#: ``(datasets, values, spill_rows)`` of each ``report_campaign_request``.
CAMPAIGN_SHAPES = (
    (CAMPAIGN_DATASETS, CAMPAIGN_VALUES, CAMPAIGN_SPILL_ROWS),
    (96, 8, None),
)
#: Spill threshold behind ``campaign_rerun``: every task and dataset spills.
RERUN_SPILL_ROWS = 10_000
RERUN_REPS = 10


def bench_registry():
    """Time a cold build and repeated cached renders per figure."""
    rows = []
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-registry-")
    try:
        service = FigureService(cache_dir, quick=not FULL, seed=SEED)
        for name in FIGURES:
            start = time.perf_counter()
            first = service.render(name)
            cold_s = time.perf_counter() - start
            assert not first.cached, f"{name}: cold render hit the cache"

            cached_samples = []
            for _ in range(CACHED_REPS):
                start = time.perf_counter()
                again = service.render(name)
                cached_samples.append(time.perf_counter() - start)
                assert again.cached and again.key == first.key

            params = {
                "figure": name,
                "fidelity": "full" if FULL else "quick",
                "seed": SEED,
            }
            record_bench(
                "report_registry_cold", params, [cold_s],
                metadata={"key": first.key}, path=OUT_PATH,
            )
            record_bench(
                "report_registry_cached", params, cached_samples,
                metadata={"key": first.key}, path=OUT_PATH,
            )
            cached_s = sorted(cached_samples)[len(cached_samples) // 2]
            rows.append(
                [
                    name,
                    f"{cold_s * 1e3:.1f}",
                    f"{cached_s * 1e6:.0f}",
                    f"{cold_s / cached_s:.0f}x",
                ]
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(
        render_table(
            ["figure", "cold (ms)", "cached median (us)", "speedup"], rows
        )
    )


def bench_campaign_request(datasets, values, spill_rows):
    """Time warm GETs of the campaign figure on one campaign shape."""
    workdir = tempfile.mkdtemp(prefix="repro-bench-campaign-request-")
    try:
        camp = Campaign.create(os.path.join(workdir, "camp"), name="bench")
        rng = np.random.default_rng(SEED)
        for i in range(datasets):
            camp.record(
                MeasurementSet(
                    values=rng.lognormal(mean=1.0, sigma=0.3, size=values),
                    unit="us",
                    name=f"dataset-{i:02d}",
                ),
                spill_rows=spill_rows,
            )
        service = FigureService(
            os.path.join(workdir, "cache"), campaign=camp, quick=not FULL
        )
        path = "/figures/campaign_trajectory.json"
        cold = handle_request(service, "GET", path)
        assert cold.status == 200 and cold.headers["X-Repro-Cached"] == "0"
        samples = []
        for _ in range(CACHED_REPS):
            start = time.perf_counter()
            warm = handle_request(service, "GET", path)
            samples.append(time.perf_counter() - start)
            assert warm.status == 200 and warm.headers["X-Repro-Cached"] == "1"
        record_bench(
            "report_campaign_request",
            {
                "datasets": datasets,
                "values": values,
                "fidelity": "full" if FULL else "quick",
            },
            samples,
            metadata={"etag": warm.headers["ETag"].strip('"')},
            path=OUT_PATH,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    median_ms = sorted(samples)[len(samples) // 2] * 1e3
    print(
        render_table(
            ["request", "warm median (ms)"],
            [[f"GET campaign_trajectory.json ({datasets} x {values})",
              f"{median_ms:.2f}"]],
        )
    )


def rerun_measure(point, rep, rng):
    """One task: ``CAMPAIGN_VALUES`` lognormal samples."""
    return rng.lognormal(mean=1.0, sigma=0.3, size=CAMPAIGN_VALUES)


def bench_campaign_rerun():
    """Time cache-warm reruns of a spilled campaign."""
    workdir = tempfile.mkdtemp(prefix="repro-bench-campaign-rerun-")
    experiment = Experiment(
        name="rerun",
        design=FactorialDesign((Factor("point", tuple(range(CAMPAIGN_DATASETS))),)),
        measure=rerun_measure,
        unit="us",
        seed=SEED,
    )
    try:
        camp = Campaign.create(os.path.join(workdir, "camp"), name="bench")
        camp.run(experiment, spill_rows=RERUN_SPILL_ROWS)
        samples = []
        for _ in range(RERUN_REPS):
            hooks = ExecHooks()
            start = time.perf_counter()
            camp.run(experiment, hooks=hooks, overwrite=True,
                     spill_rows=RERUN_SPILL_ROWS)
            samples.append(time.perf_counter() - start)
            assert hooks.cached == CAMPAIGN_DATASETS and hooks.completed == 0
        record_bench(
            "campaign_rerun",
            {
                "datasets": CAMPAIGN_DATASETS,
                "values": CAMPAIGN_VALUES,
                "spill_rows": RERUN_SPILL_ROWS,
            },
            samples,
            path=OUT_PATH,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    median_ms = sorted(samples)[len(samples) // 2] * 1e3
    print(
        render_table(
            ["rerun", "warm median (ms)"],
            [["Campaign.run(overwrite=True)", f"{median_ms:.2f}"]],
        )
    )


if __name__ == "__main__":
    bench_registry()
    for shape in CAMPAIGN_SHAPES:
        bench_campaign_request(*shape)
    bench_campaign_rerun()
