"""Shared infrastructure for the benchmark harness.

``bench_figures`` rebuilds Table 1, every paper and operations figure
and every ablation and extension study through the figure registry; the
other ``bench_*`` modules each run one performance study.  They time the
computational kernel with pytest-benchmark *and* write the regenerated
rows/series through :func:`record_result`, so the output survives
pytest's stdout capture.  At full fidelity that is the committed
``benchmarks/results/<name>.txt`` (EXPERIMENTS.md quotes these files);
a quick run writes under pytest's ``tmp_path`` and leaves the committed
results as they are.

Sample sizes default to a reduced "CI" fidelity so the whole harness runs
in minutes; set ``REPRO_BENCH_FULL=1`` for the paper's full sample sizes
(e.g. 10⁶ ping-pong samples).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

from _bench_utils import FULL, fidelity  # noqa: F401  (fidelity: re-export)


@pytest.fixture()
def record_result(tmp_path):
    """Write (and echo) a named result artifact, newline-terminated.

    ``REPRO_BENCH_FULL=1`` writes ``benchmarks/results/<name>.txt``; the
    quick default writes ``<tmp_path>/<name>.txt``.
    """

    def _write(name: str, text: str) -> Path:
        out_dir = RESULTS_DIR if FULL else tmp_path
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{name}.txt"
        path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
        print(f"\n=== {name} ===\n{text}\n")
        return path

    return _write
