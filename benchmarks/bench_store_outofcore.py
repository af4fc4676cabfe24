"""Out-of-core columnar store: full analysis under a hard heap cap.

The acceptance contract of :mod:`repro.store`: a campaign whose raw
samples *exceed* a memory cap must still complete the whole analysis
chain — streaming summaries, figure-JSON export, rank CIs, a chunked
bootstrap, and a two-column comparison — with the Python heap staying
under that cap.  The raw data lives in memory-mapped shards; only
bounded chunks ever surface.

Enforcement is ``tracemalloc`` peak (OS page cache behind ``np.memmap``
is exactly the memory the design is allowed to lean on, so RLIMIT-style
address-space caps would measure the wrong thing).  The default quick
fidelity writes ~48 MB against a 24 MB cap; ``REPRO_BENCH_FULL=1``
scales to the documented 320 MB campaign against the 256 MB cap.
Override either knob with ``REPRO_BENCH_STORE_TOTAL_MB`` /
``REPRO_BENCH_STORE_CAP_MB`` (``gates/test_store_smoke.py`` keeps the defaults).

Each phase's wall time lands in ``BENCH_repro.json`` as a
:class:`repro.compare.BenchRecord` run, so store throughput sits in the
same ``repro compare`` trajectory as the simulator kernels.
"""

from __future__ import annotations

import dataclasses
import os
import time
import tracemalloc

import numpy as np
from _bench_utils import fidelity, record_bench

from repro.report import figure_to_json, render_table
from repro.stats import StreamingSummary, bootstrap_ci, summarize_store
from repro.store import ShardStore

TOTAL_MB = int(os.environ.get("REPRO_BENCH_STORE_TOTAL_MB", fidelity(320, 48)))
CAP_MB = int(os.environ.get("REPRO_BENCH_STORE_CAP_MB", fidelity(256, 24)))
#: Alternate suite file for the phase records (default BENCH_repro.json);
#: gates/test_store_smoke.py records two independent suites and compares them.
OUT_PATH = os.environ.get("REPRO_BENCH_STORE_OUT") or None
N_COLUMNS = 16
CHUNK_ROWS = 65_536
SEED = 2026


def column_fp(i: int) -> str:
    return f"{i:032x}"


@dataclasses.dataclass
class FigStoreSummary:
    """Figure payload proving export works from streaming summaries."""

    name: str
    per_column_median: list[float]
    overall: dict


def build_outofcore(tmp_dir):
    """Write > cap worth of samples, then analyze them under the cap."""
    rows_per_col = (TOTAL_MB << 20) // 8 // N_COLUMNS
    cap_bytes = CAP_MB << 20
    walls: dict[str, float] = {}

    tracemalloc.start()
    try:
        # -- write: one spill-worthy column at a time, never the campaign.
        start = time.perf_counter()
        with ShardStore(tmp_dir / "store", shard_rows=rows_per_col) as store:
            for i in range(N_COLUMNS):
                rng = np.random.default_rng(SEED + i)
                col = rng.lognormal(mean=0.05 * i, sigma=0.4, size=rows_per_col)
                store.append(column_fp(i), col, {"column": i})
                del col, rng
        walls["write"] = time.perf_counter() - start

        store = ShardStore(tmp_dir / "store")
        # -- summarize: per-column accumulators + whole-store summary.
        start = time.perf_counter()
        per_col = []
        for i in range(N_COLUMNS):
            acc = StreamingSummary(seed=0)
            acc.update_chunks(
                store.iter_chunks(column_fp(i), chunk_rows=CHUNK_ROWS)
            )
            per_col.append(acc)
        overall = summarize_store(store, chunk_rows=CHUNK_ROWS, seed=0)
        walls["summarize"] = time.perf_counter() - start

        # -- figures: JSON export straight from the streaming summaries.
        start = time.perf_counter()
        fig = FigStoreSummary(
            name="store-outofcore",
            per_column_median=[float(s.quantile(0.5)) for s in per_col],
            overall=dataclasses.asdict(overall),
        )
        fig_json = figure_to_json(fig)
        walls["figure"] = time.perf_counter() - start

        # -- bootstrap: chunked resampling over the memory-mapped column.
        start = time.perf_counter()
        col0 = store.get(column_fp(0))[0]
        boot_chunk = max(1, (4 << 20) // (col0.size * 8))
        ci = bootstrap_ci(
            col0,
            lambda a: a.mean(axis=1),
            n_boot=120,
            seed=3,
            vectorized=True,
            chunk_rows=boot_chunk,
        )
        walls["bootstrap"] = time.perf_counter() - start

        # -- compare: slowest vs fastest column via sketch rank CIs.
        start = time.perf_counter()
        lo, hi = per_col[0], per_col[-1]
        ratio = hi.quantile(0.5) / lo.quantile(0.5)
        separated = hi.quantile_ci(0.5).low > lo.quantile_ci(0.5).high
        walls["compare"] = time.perf_counter() - start
    finally:
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    disk_bytes = store.stats().bytes
    for phase, wall in walls.items():
        record_bench(
            "store_outofcore",
            {"phase": phase, "total_mb": TOTAL_MB, "cap_mb": CAP_MB,
             "columns": N_COLUMNS},
            [wall],
            metadata={"peak_mb": round(peak_bytes / 2**20, 2)},
            path=OUT_PATH,
        )
    return {
        "store": store,
        "walls": walls,
        "peak_bytes": peak_bytes,
        "cap_bytes": cap_bytes,
        "disk_bytes": disk_bytes,
        "rows_per_col": rows_per_col,
        "per_col": per_col,
        "overall": overall,
        "fig_json": fig_json,
        "boot_ci": ci,
        "ratio": ratio,
        "separated": separated,
    }


def render(out) -> str:
    rows = [
        [phase, f"{wall:.3f}"] for phase, wall in out["walls"].items()
    ]
    return render_table(
        ["phase", "wall time (s)"],
        rows,
        title=(
            f"Out-of-core store: {out['disk_bytes'] / 2**20:.0f} MiB on disk, "
            f"heap peak {out['peak_bytes'] / 2**20:.1f} MiB "
            f"(cap {out['cap_bytes'] / 2**20:.0f} MiB), "
            f"{N_COLUMNS} columns x {out['rows_per_col']} rows"
        ),
    )


def test_store_outofcore(benchmark, record_result, tmp_path):
    out = benchmark.pedantic(build_outofcore, args=(tmp_path,), rounds=1,
                             iterations=1)
    record_result("store_outofcore", render(out))

    # The acceptance bar: more raw data on disk than the heap cap, and
    # the whole analysis chain stayed under the cap.
    assert out["disk_bytes"] > out["cap_bytes"]
    assert out["peak_bytes"] < out["cap_bytes"]

    # The streaming answers are *right*, not just cheap: exact moments...
    store = out["store"]
    col0 = store.get(column_fp(0))[0]
    assert isinstance(col0, np.memmap)
    s0 = out["per_col"][0]
    assert abs(s0.mean - float(col0.mean())) <= 1e-9 * abs(s0.mean)
    assert s0.n == col0.size
    # ...and quantiles within the sketch's documented rank-error bound.
    eps = s0.sketch.rank_error_bound()
    med = s0.quantile(0.5)
    assert abs(float(np.sum(col0 <= med)) / col0.size - 0.5) <= eps

    # The export and comparison products exist and are sane.
    assert '"per_column_median"' in out["fig_json"]
    assert out["boot_ci"].low < s0.mean < out["boot_ci"].high
    assert out["ratio"] > 1.0 and out["separated"]
