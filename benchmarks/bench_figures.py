"""Table 1 and every paper and scenario figure, built through the registry.

One bench per entry of :data:`repro.report.registry.FIGURES` that needs
no recorded campaign.  Each one:

* times the entry's build with pytest-benchmark, ``ROUNDS`` rounds for
  every figure;
* writes the entry's text summary to ``benchmarks/results/<name>.txt``,
  byte for byte the ``.txt`` artifact ``repro render <name>`` writes at
  the same fidelity;
* appends the round times to ``BENCH_repro.json`` as a
  ``figure_build`` record.

The default quick fidelity builds with each entry's ``quick_params``;
``REPRO_BENCH_FULL=1`` builds with its full ``params`` (the numbers
EXPERIMENTS.md quotes).  The text formats and any assertion about the
numbers live in the registry and ``tests/report/``, not here.
"""

from __future__ import annotations

import pytest
from _bench_utils import FULL, record_bench

from repro.report.registry import FIGURES, FORMATS, FigureService

ROUNDS = 3
NAMES = sorted(name for name, entry in FIGURES.items() if not entry.needs_campaign)


@pytest.mark.parametrize("name", NAMES)
def test_figure_build(name, benchmark, results_dir, tmp_path):
    entry = FIGURES[name]
    params = FigureService(tmp_path, quick=not FULL).params_for(entry)
    fig = benchmark.pedantic(
        entry.build, kwargs={**params, "seed": 0}, rounds=ROUNDS, iterations=1,
    )
    text = FORMATS["txt"].write(entry, fig, {})
    (results_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    record_bench(
        "figure_build",
        {"figure": name, "fidelity": "full" if FULL else "quick"},
        benchmark.stats.stats.data,
    )
