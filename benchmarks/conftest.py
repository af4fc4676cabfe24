"""Shared infrastructure for the benchmark harness.

``bench_figures`` rebuilds Table 1, every paper and operations figure
and every ablation and extension study through the figure registry; the
other ``bench_*`` modules each run one performance study.  They time the
computational kernel with pytest-benchmark *and* write the regenerated
rows/series to ``benchmarks/results/<name>.txt`` so the output survives
pytest's stdout capture (EXPERIMENTS.md quotes these files).

Sample sizes default to a reduced "CI" fidelity so the whole harness runs
in minutes; set ``REPRO_BENCH_FULL=1`` for the paper's full sample sizes
(e.g. 10⁶ ping-pong samples).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

from _bench_utils import FULL, fidelity  # noqa: F401  (re-export)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_result(results_dir):
    """Write (and echo) a named result artifact."""

    def _write(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")
        return path

    return _write
