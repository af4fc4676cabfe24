"""Every registry entry that needs no recorded campaign, built and timed.

That is Table 1, the paper and operations figures, and the ablation and
extension studies: one bench per entry of
:data:`repro.report.registry.FIGURES` without ``needs_campaign``.  Each
one:

* times the entry's build with pytest-benchmark, ``ROUNDS`` rounds for
  every figure;
* writes the entry's text summary, byte for byte the ``.txt`` artifact
  ``repro render <name>`` writes at the same fidelity;
* appends the round times to ``BENCH_repro.json`` as a
  ``figure_build`` record (to ``REPRO_BENCH_REGISTRY_OUT`` instead when
  that is set, as the CI gate sets it).

``REPRO_BENCH_FULL=1`` builds with each entry's full ``params``, and
``record_result`` writes the text to the committed
``benchmarks/results/<name>.txt`` (the numbers EXPERIMENTS.md quotes).
The default quick fidelity builds with each entry's ``quick_params``,
and ``record_result`` writes the text under pytest's ``tmp_path``, so a
quick run leaves the committed full-fidelity results as they are (CI
checks this with ``git diff --exit-code``).  The text
formats and any assertion about the numbers live in the registry and
``tests/report/``, not here.
"""

from __future__ import annotations

import pytest
from _bench_utils import FULL, REGISTRY_OUT, record_bench

from repro.report.registry import FIGURES, FORMATS, FigureService

ROUNDS = 3
NAMES = sorted(name for name, entry in FIGURES.items() if not entry.needs_campaign)


@pytest.mark.parametrize("name", NAMES)
def test_figure_build(name, benchmark, record_result, tmp_path):
    entry = FIGURES[name]
    params = FigureService(tmp_path, quick=not FULL).params_for(entry)
    fig = benchmark.pedantic(
        entry.build, kwargs={**params, "seed": 0}, rounds=ROUNDS, iterations=1,
    )
    record_result(name, FORMATS["txt"].write(entry, fig, ""))
    record_bench(
        "figure_build",
        {"figure": name, "fidelity": "full" if FULL else "quick"},
        benchmark.stats.stats.data,
        path=REGISTRY_OUT,
    )
