"""The checks of the CI ``tests`` job beyond its pytest lines.

The observability smoke, the kernel benchmark smoke and the coverage of
its records, and the figure bench leaving the committed results alone.
Both benches write their records under the base temporary directory:
the kernel smoke to ``kernels/kernels.json``, the figure bench (through
``REPRO_BENCH_REGISTRY_OUT``) to ``figures/figures.json``.  CI uploads
both files.  The figure bench adds nothing to the tracked
``BENCH_repro.json``; benches that ran before this gate (CI's executor
benches) may have, and the gate leaves their changes as it found them.
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
def kernel_suite(tmp_path_factory):
    """The suite file the kernel smoke writes its records to."""
    return tmp_path_factory.mktemp("kernels", numbered=False) / "kernels.json"


@pytest.fixture(scope="module")
def kernel_smoke(kernel_suite):
    """Exits non-zero if SimComm's vectorized collective kernels are ever
    slower than the scalar ReferenceComm oracle at P >= 256 (see
    docs/PERFORMANCE.md)."""
    return python("benchmarks/bench_simsys_kernels.py", "--quick",
                  "--out", kernel_suite)


def test_kernel_benchmark_smoke(kernel_smoke, kernel_suite):
    assert f"results merged into {kernel_suite}" in kernel_smoke.stdout


def test_kernel_records_cover_both_kernels(kernel_smoke, kernel_suite, monkeypatch):
    # Trajectory continuity: every (machine, op, P) must hold a
    # kernel=reference record (the ReferenceComm baseline) and a
    # kernel=vectorized record (SimComm) in the file this smoke wrote,
    # not in the committed suite, which holds them all already.
    monkeypatch.syspath_prepend(ROOT / "benchmarks")
    from bench_simsys_kernels import MACHINES, OPS

    from repro.compare import BenchSuiteResult, record_key

    records = BenchSuiteResult.load(kernel_suite).records
    missing = [
        key
        for (machine, _), op, P in itertools.product(MACHINES, OPS, (64, 256, 1024))
        for kernel in ("reference", "vectorized")
        if (key := record_key(op, {"machine": machine, "P": P, "n": 100,
                                   "kernel": kernel})) not in records
    ]
    assert not missing, f"missing kernel records: {missing}"


def _committed_results_diff() -> str:
    """The working tree's ``git diff`` of the committed benchmark results."""
    return subprocess.run(
        ["git", "diff", "benchmarks/results", "BENCH_repro.json"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


def test_figure_bench_leaves_committed_results_alone(tmp_path_factory):
    # Every registry entry that needs no campaign (Table 1, the figures,
    # and the ablation and extension studies) at quick fidelity: the
    # texts and the records go under the base temporary directory, so
    # the committed full-fidelity benchmarks/results/ and
    # BENCH_repro.json must come out of the run as they went in.  Their
    # diff is compared, not required empty: CI's executor benches record
    # into BENCH_repro.json before this gate runs.
    figures = tmp_path_factory.mktemp("figures", numbered=False)
    suite = figures / "figures.json"
    before = _committed_results_diff()
    python("-m", "pytest", "benchmarks/bench_figures.py", "-q",
           "--basetemp", figures / "bench",
           env={"REPRO_BENCH_REGISTRY_OUT": suite})
    assert suite.stat().st_size > 0
    assert _committed_results_diff() == before, "the figure bench changed committed results"
