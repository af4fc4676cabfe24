"""Cold vs. cached render cost of the figure registry.

The acceptance contract of the content-addressed cache
(docs/REPORT.md): a second render of a figure with unchanged inputs
must skip the builder entirely, so its cost is file-stat plus path
construction — orders of magnitude below the cold build.  The record
``report_registry_cached`` times that path for a pair of registry
figures (a cheap one and a simulation-heavy one) and records the
samples into ``BENCH_repro.json`` so ``repro compare`` flags a cache
regression (e.g. a key accidentally depending on wall-clock) as a
slowdown.

The record ``report_registry_cold`` times the cold path: a full
``FigureService.render`` (build, Vega spec, serializations, writes) of
each figure perfbench serves, the six ``SIMULATED_FIGURES`` of
``perfbench/workloads.py`` and ``campaign_trajectory`` on the shape of
perfbench's ``fanout`` campaign (96 datasets of 8 values).  Each sample
is one render into a fresh cache directory, ``COLD_REPS`` of them per
run after one unrecorded warm-up round, the figures interleaved.

A third record, ``report_campaign_request``, times a warm
``handle_request`` GET of ``campaign_trajectory.json`` on a campaign
whose datasets spilled to its shard store: every such request keys the
figure on the campaign's content (``campaign_digest``), so this is the
cost a dashboard pays per re-served campaign figure.  It runs twice: on
20 datasets of 20k values spilled to the store, and on the shape of
perfbench's ``fanout`` campaign, 96 unspilled datasets of 8 values,
where keying used to read every dataset file.

A record ``serve_warm_request`` times warm requests through a live
:class:`~repro.serve.FigureServer` on an ephemeral port, in perfbench's
burst mix: 70% cached figure GETs, 15% revalidations (one in five with a
stale tag), 10% the campaign figure, 5% the catalog, one client sending
one request per connection.  Every figure is built before the clock
starts, so this is the cost of answering what is already known.  Each
sample is one burst's seconds per request; one warm-up burst is not
recorded.

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

import asyncio
import http.client
import os
import shutil
import tempfile
import threading
import time

import numpy as np
from _bench_utils import FULL, record_bench

from repro.core import Campaign, Experiment, Factor, FactorialDesign, MeasurementSet
from repro.exec import ExecHooks
from repro.report import render_table
from repro.report.registry import FigureService
from repro.serve import FigureServer, handle_request

OUT_PATH = os.environ.get("REPRO_BENCH_REGISTRY_OUT") or None
FIGURES = ("fig7ab_bounds", "fig6_rank_variation")
CACHED_REPS = 50
#: The figures perfbench's serve phase builds cold, in its order.
COLD_FIGURES = (
    "fig7c_distribution",
    "fig5_reduce",
    "scale_collectives",
    "fig6_rank_variation",
    "fig1_hpl",
    "chaos_degradation",
    "campaign_trajectory",
)
COLD_REPS = 5
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
#: Figures and request mix of ``serve_warm_request`` (perfbench's mix).
SERVE_FIGURES = ("fig7ab_bounds", "fig1_hpl", "fig7c_distribution")
SERVE_MIX = (("figure", 70), ("revalidate", 15), ("campaign", 10), ("catalog", 5))
SERVE_RUNS = 2
SERVE_SAMPLES = 5
#: Spill threshold behind ``campaign_rerun``: every task and dataset spills.
RERUN_SPILL_ROWS = 10_000
RERUN_REPS = 10


def _campaign(path, datasets, values, spill_rows):
    """A campaign of *datasets* lognormal sets of *values* each."""
    camp = Campaign.create(path, name="bench")
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
    return camp


def _params(name):
    return {"figure": name, "fidelity": "full" if FULL else "quick", "seed": SEED}


def bench_cold_render(reps=COLD_REPS):
    """Time cold renders of perfbench's served figures, each round into a
    fresh cache directory."""
    workdir = tempfile.mkdtemp(prefix="repro-bench-cold-render-")
    samples = {name: [] for name in COLD_FIGURES}
    keys = {}
    try:
        camp = _campaign(os.path.join(workdir, "camp"), 96, 8, None)
        for rep in range(reps + 1):  # round 0 is the warm-up
            service = FigureService(os.path.join(workdir, f"cache-{rep}"),
                                    campaign=camp, quick=not FULL, seed=SEED)
            for name in COLD_FIGURES:
                start = time.perf_counter()
                rendered = service.render(name)
                elapsed = time.perf_counter() - start
                assert not rendered.cached, f"{name}: cold render hit the cache"
                keys[name] = rendered.key
                if rep:
                    samples[name].append(elapsed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in COLD_FIGURES:
        record_bench("report_registry_cold", _params(name), samples[name],
                     metadata={"key": keys[name]}, path=OUT_PATH)
    rows = [[name, f"{sorted(run)[len(run) // 2] * 1e3:.1f}"]
            for name, run in samples.items()]
    total = sum(sorted(run)[len(run) // 2] for run in samples.values())
    rows.append(["(sum of medians)", f"{total * 1e3:.1f}"])
    print(render_table(["figure", "cold render median (ms)"], rows))


def bench_registry():
    """Time repeated cached renders per figure."""
    rows = []
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-registry-")
    try:
        service = FigureService(cache_dir, quick=not FULL, seed=SEED)
        for name in FIGURES:
            first = service.render(name)
            assert not first.cached, f"{name}: cold render hit the cache"

            cached_samples = []
            for _ in range(CACHED_REPS):
                start = time.perf_counter()
                again = service.render(name)
                cached_samples.append(time.perf_counter() - start)
                assert again.cached and again.key == first.key

            record_bench(
                "report_registry_cached", _params(name), cached_samples,
                metadata={"key": first.key}, path=OUT_PATH,
            )
            cached_s = sorted(cached_samples)[len(cached_samples) // 2]
            rows.append([name, f"{cached_s * 1e6:.0f}"])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(render_table(["figure", "cached median (us)"], rows))


def bench_campaign_request(datasets, values, spill_rows):
    """Time warm GETs of the campaign figure on one campaign shape."""
    workdir = tempfile.mkdtemp(prefix="repro-bench-campaign-request-")
    try:
        camp = _campaign(os.path.join(workdir, "camp"), datasets, values, spill_rows)
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


def _serve_requests():
    """One burst: ``(path, revalidate, stale)`` per request, exactly in
    the proportions of ``SERVE_MIX``, in a seeded order."""
    formats = ("vl.json", "json", "html")
    requests = []
    for cls, count in SERVE_MIX:
        for i in range(count):
            if cls == "catalog":
                requests.append(("/figures", False, False))
                continue
            fig = ("campaign_trajectory" if cls == "campaign"
                   else SERVE_FIGURES[i % len(SERVE_FIGURES)])
            requests.append((f"/figures/{fig}.{formats[i % len(formats)]}",
                             cls == "revalidate", cls == "revalidate" and i % 5 == 0))
    order = np.random.default_rng(SEED).permutation(len(requests))
    return [requests[i] for i in order]


def _burst(port, requests, etags):
    """Send *requests* one at a time, each on a fresh connection; the
    burst's seconds per request."""
    start = time.perf_counter()
    for path, revalidate, stale in requests:
        headers = {}
        if revalidate:
            etag = etags[path.split("/")[-1].split(".", 1)[0]]
            headers["If-None-Match"] = '"stale"' if stale else etag
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("GET", path, headers=headers)
            resp = conn.getresponse()
            resp.read()
            expected = 304 if revalidate and not stale else 200
            assert resp.status == expected, (path, resp.status)
        finally:
            conn.close()
    return (time.perf_counter() - start) / len(requests)


def bench_serve_warm_request(runs=SERVE_RUNS, samples=SERVE_SAMPLES):
    """Time warm bursts of perfbench's request mix against a live server."""
    workdir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    loop = asyncio.new_event_loop()
    server = thread = None
    try:
        camp = Campaign.create(os.path.join(workdir, "camp"), name="bench")
        rng = np.random.default_rng(SEED)
        for i in range(4):
            camp.record(MeasurementSet(
                values=rng.lognormal(mean=1.0, sigma=0.3, size=200),
                unit="us", name=f"dataset-{i}",
            ))
        service = FigureService(os.path.join(workdir, "cache"), campaign=camp,
                                quick=True, seed=SEED)
        etags = {}
        for name in SERVE_FIGURES + ("campaign_trajectory",):
            etags[name] = handle_request(
                service, "GET", f"/figures/{name}.json").headers["ETag"]
        server = FigureServer(service, port=0)
        loop.run_until_complete(server.start())
        thread = threading.Thread(
            target=loop.run_until_complete, args=(server.serve_forever(),))
        thread.start()
        requests = _serve_requests()
        _burst(server.port, requests, etags)  # warm-up, not recorded
        per_request = []
        for _ in range(runs):
            run = [_burst(server.port, requests, etags) for _ in range(samples)]
            record_bench(
                "serve_warm_request",
                {"requests": len(requests), "mix": "perfbench"},
                run,
                metadata={"figures": list(SERVE_FIGURES)},
                path=OUT_PATH,
            )
            per_request.extend(run)
    finally:
        if thread is not None:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=10)
            thread.join(timeout=10)
        loop.close()
        shutil.rmtree(workdir, ignore_errors=True)
    median_us = sorted(per_request)[len(per_request) // 2] * 1e6
    print(
        render_table(
            ["burst", "median per request (us)", "requests/s"],
            [[f"{len(requests)} warm requests, perfbench mix",
              f"{median_us:.0f}", f"{1e6 / median_us:.0f}"]],
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
    bench_cold_render()
    bench_registry()
    for shape in CAMPAIGN_SHAPES:
        bench_campaign_request(*shape)
    bench_campaign_rerun()
    bench_serve_warm_request()
