"""The checks of the CI ``tests`` job beyond its pytest lines.

The observability smoke, the kernel benchmark smoke and the coverage of
its records, and the figure bench leaving the committed results alone.
The kernel smoke and the figure bench merge their records into the
tracked ``BENCH_repro.json``, which CI uploads; restore it with ``git
checkout BENCH_repro.json`` after a local run.
"""

from __future__ import annotations

import itertools
import subprocess

import pytest
from conftest import ROOT, prom, python, repro


def test_observability_smoke(tmp_path):
    camp = tmp_path / "smoke"
    repro("campaign", "--dir", camp, "--samples", 20, "--reps", 2,
          "--workers", 2, "--emit-metrics", camp / "metrics.prom")
    repro("trace", camp)
    assert (camp / "metrics.prom").stat().st_size > 0
    metrics = prom(camp / "metrics.prom")
    assert "repro_tasks_completed_total" in metrics
    assert metrics["repro_simsys_kernel_ops_total"] >= 1
    # Workers ship histograms home too, not only counters.
    assert metrics["repro_simsys_kernel_seconds_count"] >= 1


def test_serial_campaign_ticks_kernel_counters(tmp_path):
    # Measurements execute in-process, so the simulator's kernel
    # counters must tick here too.
    repro("campaign", "--dir", tmp_path, "--samples", 10, "--reps", 2,
          "--workers", 1, "--emit-metrics", tmp_path / "metrics.prom")
    assert prom(tmp_path / "metrics.prom")["repro_simsys_kernel_ops_total"] >= 1


@pytest.fixture(scope="module")
def kernel_smoke():
    """Exits non-zero if SimComm's vectorized collective kernels are ever
    slower than the scalar ReferenceComm oracle at P >= 256 (see
    docs/PERFORMANCE.md)."""
    return python("benchmarks/bench_simsys_kernels.py", "--quick")


def test_kernel_benchmark_smoke(kernel_smoke):
    assert "results merged into BENCH_repro.json" in kernel_smoke.stdout


def test_kernel_records_cover_both_kernels(kernel_smoke, monkeypatch):
    # Trajectory continuity: every (machine, op, P) the smoke wrote must
    # hold a kernel=reference record (the ReferenceComm baseline) and a
    # kernel=vectorized record (SimComm).
    monkeypatch.syspath_prepend(ROOT / "benchmarks")
    from bench_simsys_kernels import MACHINES, OPS

    from repro.compare import BenchSuiteResult, record_key

    records = BenchSuiteResult.load(ROOT / "BENCH_repro.json").records
    missing = [
        key
        for (machine, _), op, P in itertools.product(MACHINES, OPS, (64, 256, 1024))
        for kernel in ("reference", "vectorized")
        if (key := record_key(op, {"machine": machine, "P": P, "n": 100,
                                   "kernel": kernel})) not in records
    ]
    assert not missing, f"missing kernel records: {missing}"


def test_figure_bench_leaves_committed_results_alone(tmp_path):
    # Every registry entry that needs no campaign (Table 1, the figures,
    # and the ablation and extension studies) at quick fidelity: the
    # texts go to pytest's tmp_path, so the committed full-fidelity
    # benchmarks/results/ must come out of the run unchanged.
    python("-m", "pytest", "benchmarks/bench_figures.py", "-q",
           "--basetemp", tmp_path)
    diff = subprocess.run(
        ["git", "diff", "--exit-code", "--stat", "benchmarks/results"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert diff.returncode == 0, diff.stdout + diff.stderr
