"""Fidelity switch and result recording shared by the benchmark modules.

Set ``REPRO_BENCH_FULL=1`` to run at the paper's full sample sizes
(10⁶ ping-pong samples, 1000-run collectives); the default is a reduced
fidelity that keeps the whole harness under a few minutes.

:func:`record_bench` appends one *run* of raw timing samples to the
versioned :class:`repro.compare.BenchRecord` suite in
``BENCH_simsys.json`` at the repository root, so the performance
trajectory is tracked across PRs with enough structure for the
Kalibera–Jones effect-size comparisons behind ``repro compare``
(see docs/COMPARE.md).
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Iterable, Mapping

#: Full paper fidelity (1M ping-pong samples etc.) vs quick harness run.
FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0", "false")

#: Machine-readable benchmark results, merged across runs (repo root).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_simsys.json"


def fidelity(full_n: int, quick_n: int) -> int:
    """Pick the sample count for the current fidelity mode."""
    return full_n if FULL else quick_n


def record_bench(
    name: str,
    params: Mapping[str, object],
    run_samples: Iterable[float],
    *,
    unit: str = "s",
    metadata: Mapping[str, object] | None = None,
    path: Path | str | None = None,
    max_runs: int | None = None,
):
    """Append one run of raw samples to *name*'s record in the suite file.

    *run_samples* are the individual timed iterations of this process's
    run; repeated invocations accumulate runs (up to ``max_runs``,
    oldest dropped first) so the suite carries the run/iteration
    structure the multi-level variance estimator needs.  A file the
    reader rejects (corrupt, or another schema version) is discarded
    with a ``RuntimeWarning`` and rewritten.  Returns the updated
    :class:`repro.compare.BenchRecord`.
    """
    from repro.compare import BenchRecord, BenchSuiteResult
    from repro.compare.record import DEFAULT_MAX_RUNS
    from repro.errors import ValidationError
    from repro.obs import Provenance

    target = Path(path) if path is not None else BENCH_JSON
    suite = BenchSuiteResult(records={})
    if target.exists():
        try:
            suite = BenchSuiteResult.load(target)
        except ValidationError as exc:
            warnings.warn(
                f"discarding unreadable benchmark suite {target}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    record = BenchRecord(
        name=name,
        params=dict(params),
        samples=(tuple(float(s) for s in run_samples),),
        unit=unit,
        metadata=dict(metadata) if metadata else {},
    )
    suite = suite.merged(
        record, max_runs=max_runs if max_runs is not None else DEFAULT_MAX_RUNS
    )
    suite = suite.with_provenance(
        Provenance.capture(
            methodology={"recorder": "benchmarks._bench_utils.record_bench"}
        ).to_dict()
    )
    suite.write(target)
    return suite.records[record.key]
