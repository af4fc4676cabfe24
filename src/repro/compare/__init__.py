"""Continuous-benchmarking regression engine.

The paper's Rules 1–8 apply to our own performance claims too: "this
change made the simulator faster" is a performance result and deserves
the same statistical rigor as a paper figure.  This package turns the
repository's benchmark snapshot into a gated trajectory:

* :mod:`repro.compare.record` — the versioned ``BenchRecord`` /
  ``BenchSuiteResult`` schema every ``BENCH_*.json`` file uses, with
  provenance stamping and integrity digests;
* :mod:`repro.compare.kalibera` — Kalibera–Jones multi-level
  random-effects variance estimation and effect-size confidence
  intervals on the ratio of means (asymptotic + hierarchical
  bootstrap);
* :mod:`repro.compare.engine` — ``compare_runs`` / ``compare_histories``
  verdicts over whole suites, and the ``SequentialGate`` that stops
  sampling as soon as the regression verdict is significant.

The ``repro compare`` CLI subcommand (exit 1 on a significant
regression) and the CI gate ``gates/test_compare_gate.py`` wrap this
API; see ``docs/COMPARE.md``.
"""

from __future__ import annotations

from .engine import (
    GateDecision,
    HistoryComparison,
    HistoryStep,
    RecordComparison,
    SequentialGate,
    SuiteComparison,
    compare_histories,
    compare_records,
    compare_runs,
    compare_runs_sequential,
)
from .kalibera import (
    VarianceComponents,
    mean_and_variance,
    ratio_ci,
    ratio_ci_bootstrap,
    variance_components,
)
from .record import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    BenchSuiteResult,
    history_labels,
    record_key,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "BenchSuiteResult",
    "GateDecision",
    "HistoryComparison",
    "HistoryStep",
    "RecordComparison",
    "SequentialGate",
    "SuiteComparison",
    "VarianceComponents",
    "compare_histories",
    "compare_records",
    "compare_runs",
    "compare_runs_sequential",
    "history_labels",
    "mean_and_variance",
    "ratio_ci",
    "ratio_ci_bootstrap",
    "record_key",
    "variance_components",
]
