"""The CI ``compare-gate`` gate: ``repro compare`` passes the honest null,
fails a known regression, and refuses bad input (docs/COMPARE.md)."""

from __future__ import annotations

import pytest
from conftest import ROOT, python, repro

#: Flags per recorded suite.  ``base`` and ``fresh`` are two independent
#: same-host suites (the honest null); ``slowed`` has a 1.5x injected
#: slowdown (the known regression).  ``--no-gate`` skips the
#: point-estimate speedup checks: on shared CI runners the statistical
#: comparison IS the gate.
SUITES = {
    "base": ("--no-gate",),
    "fresh": ("--no-gate",),
    "slowed": ("--scale-wall", "1.5"),
}

#: Runs per suite, each from its own process.
ROUNDS = 3


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("compare", numbered=False)


@pytest.fixture(scope="module")
def suite(out):
    """The path of each suite by name.

    Every run is its own process: runs that share one process share its
    state, and understate the between-run variance the Kalibera-Jones
    estimator needs.  The suites take turns, the order rotated each
    round, so drift of the host over the recording spreads over all of
    them instead of landing on one.
    """
    names = list(SUITES)
    for r in range(ROUNDS):
        for name in names[r:] + names[:r]:
            python("benchmarks/bench_simsys_kernels.py", "--quick", "--runs", 1,
                   *SUITES[name], "--out", out / f"{name}.json")
    return {name: out / f"{name}.json" for name in SUITES}


def test_self_comparison_passes(suite):
    repro("compare", suite["base"], suite["base"])


def test_injected_regression_fails(suite, out):
    failed = repro("compare", suite["base"], suite["slowed"],
                   "--out", out / "report-injected", expect=1)
    assert "COMPARE GATE FAILED" in failed.stderr


def test_missing_suite_is_bad_input(tmp_path):
    failed = repro("compare", ROOT / "BENCH_repro.json", tmp_path / "missing.json",
                   expect=2)
    assert failed.stderr.startswith("error:")


def test_fresh_vs_fresh_gate(suite, out):
    # Same host, same commit: any regression beyond 10% is real noise
    # trouble or a broken run.  The wide min-effect absorbs shared-runner
    # jitter (rationale in docs/COMPARE.md).
    repro("compare", suite["base"], suite["fresh"], "--min-effect", "0.10",
          "--out", out / "report-fresh")


def test_committed_baseline_drift_is_recorded(suite, out):
    # Informational: cross-machine wall-clock ratios are not statistically
    # defensible (different CPUs), so this never gates.  It runs for the
    # report it leaves in the artifact trail, whatever its verdict.
    repro("compare", ROOT / "BENCH_repro.json", suite["fresh"],
          "--out", out / "report-baseline", expect=None)
