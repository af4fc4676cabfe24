"""The continuous-benchmarking regression engine (``compare_runs``).

Given two :class:`~repro.compare.record.BenchSuiteResult` files — a
committed baseline and a fresh run — the engine compares every shared
record with the Kalibera–Jones effect-size CI on the ratio of means
(:mod:`repro.compare.kalibera`), cross-checks it with the hierarchical
bootstrap, and renders a per-record verdict:

``regression``
    the whole ratio CI lies above the regression threshold — the
    slowdown is statistically significant *and* larger than the minimum
    effect anyone cares about;
``improvement``
    the whole CI lies below the improvement threshold;
``indistinguishable``
    the CI straddles 1 (or the effect is smaller than the threshold);
``incomparable``
    not enough independent replication for a defensible interval
    (e.g. a record with a single run) — reported with the
    point ratio, but never allowed to fail a gate: the paper's Rule 7
    forbids claiming a change without sound statistics.

Every verdict comes from :func:`compare_records` over *all* recorded
runs of both sides: Kalibera & Jones build the interval from every
top-level run, and a replay that stops early on recorded data saves no
measurement — it only discards evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from .._validation import check_prob
from ..errors import ValidationError
from ..stats.ci import ConfidenceInterval
from .kalibera import ratio_ci, ratio_ci_bootstrap
from .record import BenchRecord, BenchSuiteResult

__all__ = [
    "RecordComparison",
    "SuiteComparison",
    "HistoryStep",
    "HistoryComparison",
    "compare_records",
    "compare_runs",
    "compare_histories",
]

#: Default minimum effect size: ratio changes within ±2% are treated as
#: noise even when statistically resolvable (practical significance).
DEFAULT_MIN_EFFECT = 0.02


def _ci_to_dict(ci: ConfidenceInterval | None) -> dict[str, Any] | None:
    if ci is None:
        return None
    return {
        "estimate": ci.estimate,
        "low": ci.low,
        "high": ci.high,
        "confidence": ci.confidence,
        "statistic": ci.statistic,
        "n": ci.n,
    }


@dataclass(frozen=True)
class RecordComparison:
    """Verdict for one shared benchmark configuration.

    ``ratio`` is ``new_mean / old_mean`` — above 1 means the new run is
    slower (records hold costs, not rates).  ``ci`` is the Kalibera–
    Jones asymptotic interval on that ratio, ``bootstrap_ci`` the
    hierarchical-bootstrap cross-check; ``statistical`` is False when
    replication was insufficient and only the point ratio is reported.
    """

    key: str
    unit: str
    old_mean: float
    new_mean: float
    ratio: float
    verdict: str
    statistical: bool
    ci: ConfidenceInterval | None = None
    bootstrap_ci: ConfidenceInterval | None = None
    old_runs: int = 0
    new_runs: int = 0
    note: str = ""

    @property
    def is_regression(self) -> bool:
        """True when this record's verdict is a significant regression."""
        return self.verdict == "regression"

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload for reports."""
        return {
            "key": self.key,
            "unit": self.unit,
            "old_mean": self.old_mean,
            "new_mean": self.new_mean,
            "ratio": self.ratio,
            "verdict": self.verdict,
            "statistical": self.statistical,
            "ci": _ci_to_dict(self.ci),
            "bootstrap_ci": _ci_to_dict(self.bootstrap_ci),
            "old_runs": self.old_runs,
            "new_runs": self.new_runs,
            "note": self.note,
        }


def _check_thresholds(confidence: float, min_effect: float) -> None:
    check_prob(confidence, "confidence")
    if not (0.0 <= min_effect < 1.0):
        raise ValidationError(f"min_effect must be in [0, 1), got {min_effect}")


def compare_records(
    old: BenchRecord,
    new: BenchRecord,
    *,
    confidence: float = 0.95,
    min_effect: float = DEFAULT_MIN_EFFECT,
    seed: int = 0,
) -> RecordComparison:
    """Compare one configuration's new samples against its baseline.

    The regression threshold is ``1 + min_effect`` and the improvement
    threshold ``1 / (1 + min_effect)`` (symmetric in log space).  A
    verdict is only ``regression``/``improvement`` when the *entire*
    effect-size CI clears the threshold — significance and magnitude at
    once, per Kalibera & Jones.
    """
    _check_thresholds(confidence, min_effect)
    if old.key != new.key:
        raise ValidationError(
            f"cannot compare different configurations: {old.key!r} vs {new.key!r}"
        )
    if old.unit != new.unit:
        raise ValidationError(
            f"unit mismatch for {old.key!r}: {old.unit!r} vs {new.unit!r}"
        )
    old_mean, new_mean = old.mean, new.mean
    if old_mean == 0.0:
        raise ValidationError(f"baseline mean for {old.key!r} is zero; ratio undefined")
    ratio = new_mean / old_mean
    up = 1.0 + min_effect
    down = 1.0 / up

    if old.n_runs < 2 or new.n_runs < 2:
        return RecordComparison(
            key=old.key,
            unit=old.unit,
            old_mean=old_mean,
            new_mean=new_mean,
            ratio=ratio,
            verdict="incomparable",
            statistical=False,
            old_runs=old.n_runs,
            new_runs=new.n_runs,
            note=(
                "insufficient replication for a confidence interval "
                f"(runs: {old.n_runs} baseline, {new.n_runs} current; need >= 2 each)"
            ),
        )

    ci = ratio_ci(new.samples, old.samples, confidence=confidence)
    boot = ratio_ci_bootstrap(
        new.samples, old.samples, confidence=confidence, seed=seed
    )
    note = ""
    if boot.low > ci.high or boot.high < ci.low:
        note = "bootstrap cross-check disagrees with the asymptotic CI"
    if not math.isfinite(ci.low) or not math.isfinite(ci.high):
        verdict = "indistinguishable"
        note = (note + "; " if note else "") + "ratio CI unbounded (baseline mean not resolved)"
    elif ci.low > up:
        verdict = "regression"
    elif ci.high < down:
        verdict = "improvement"
    else:
        verdict = "indistinguishable"
    return RecordComparison(
        key=old.key,
        unit=old.unit,
        old_mean=old_mean,
        new_mean=new_mean,
        ratio=ratio,
        verdict=verdict,
        statistical=True,
        ci=ci,
        bootstrap_ci=boot,
        old_runs=old.n_runs,
        new_runs=new.n_runs,
        note=note,
    )


@dataclass(frozen=True)
class SuiteComparison:
    """The whole-suite comparison report.

    ``records`` holds one :class:`RecordComparison` per shared key;
    ``only_old``/``only_new`` list configurations present on one side
    only (never gate-failing — a new benchmark is not a regression).
    """

    records: tuple[RecordComparison, ...]
    only_old: tuple[str, ...] = ()
    only_new: tuple[str, ...] = ()
    confidence: float = 0.95
    min_effect: float = DEFAULT_MIN_EFFECT

    @property
    def regressions(self) -> tuple[RecordComparison, ...]:
        """Shared records whose verdict is a significant regression."""
        return tuple(r for r in self.records if r.is_regression)

    @property
    def improvements(self) -> tuple[RecordComparison, ...]:
        """Shared records whose verdict is a significant improvement."""
        return tuple(r for r in self.records if r.verdict == "improvement")

    @property
    def incomparable(self) -> tuple[RecordComparison, ...]:
        """Shared records lacking the replication for any verdict."""
        return tuple(r for r in self.records if r.verdict == "incomparable")

    @property
    def ok(self) -> bool:
        """Gate verdict: True when no significant regression was found."""
        return not self.regressions

    def summary(self) -> dict[str, Any]:
        """Count summary for logs and report headers."""
        return {
            "records": len(self.records),
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "indistinguishable": sum(
                1 for r in self.records if r.verdict == "indistinguishable"
            ),
            "incomparable": len(self.incomparable),
            "only_old": len(self.only_old),
            "only_new": len(self.only_new),
        }

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload (``compare_report.json``)."""
        return {
            "confidence": self.confidence,
            "min_effect": self.min_effect,
            "ok": self.ok,
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
            "only_old": list(self.only_old),
            "only_new": list(self.only_new),
        }


def compare_runs(
    baseline: BenchSuiteResult,
    current: BenchSuiteResult,
    *,
    confidence: float = 0.95,
    min_effect: float = DEFAULT_MIN_EFFECT,
    seed: int = 0,
) -> SuiteComparison:
    """Compare a fresh benchmark suite against its baseline, key by key.

    The central API of the regression engine: every configuration present
    in both suites gets a Kalibera–Jones effect-size verdict; the
    resulting :class:`SuiteComparison` is the machine-readable gate
    (``.ok``) plus everything a report needs.
    """
    if not isinstance(baseline, BenchSuiteResult) or not isinstance(current, BenchSuiteResult):
        raise ValidationError("compare_runs expects two BenchSuiteResult instances")
    _check_thresholds(confidence, min_effect)
    shared = [k for k in baseline.keys() if k in current]
    comparisons = tuple(
        compare_records(
            baseline.records[k],
            current.records[k],
            confidence=confidence,
            min_effect=min_effect,
            seed=seed + i,
        )
        for i, k in enumerate(shared)
    )
    return SuiteComparison(
        records=comparisons,
        only_old=tuple(k for k in baseline.keys() if k not in current),
        only_new=tuple(k for k in current.keys() if k not in baseline),
        confidence=confidence,
        min_effect=min_effect,
    )


@dataclass(frozen=True)
class HistoryStep:
    """One step of a benchmark trajectory: suite *label* vs its predecessor."""

    label: str
    comparison: SuiteComparison

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload for history reports."""
        return {"label": self.label, "comparison": self.comparison.to_dict()}


@dataclass(frozen=True)
class HistoryComparison:
    """A trajectory of suites compared consecutively (oldest first).

    ``steps[i]`` compares suite ``i+1`` against suite ``i``; ``overall``
    compares the newest suite against the oldest, catching slow drift
    that no single step resolves.
    """

    labels: tuple[str, ...]
    steps: tuple[HistoryStep, ...]
    overall: SuiteComparison

    @property
    def ok(self) -> bool:
        """True when neither the last step nor the overall drift regressed."""
        return self.overall.ok and (not self.steps or self.steps[-1].comparison.ok)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload (``compare_history.json``)."""
        return {
            "labels": list(self.labels),
            "ok": self.ok,
            "steps": [s.to_dict() for s in self.steps],
            "overall": self.overall.to_dict(),
        }


def compare_histories(
    suites: Sequence[BenchSuiteResult],
    *,
    labels: Sequence[str] | None = None,
    confidence: float = 0.95,
    min_effect: float = DEFAULT_MIN_EFFECT,
    seed: int = 0,
) -> HistoryComparison:
    """Compare a chronological history of suites (oldest first).

    Runs :func:`compare_runs` over every consecutive pair plus newest vs
    oldest, so both sudden regressions and accumulated drift surface.
    """
    _check_thresholds(confidence, min_effect)
    if len(suites) < 2:
        raise ValidationError(
            f"a history comparison needs at least 2 suites, got {len(suites)}"
        )
    if labels is None:
        labels = tuple(f"suite{i}" for i in range(len(suites)))
    if len(labels) != len(suites):
        raise ValidationError(
            f"got {len(labels)} labels for {len(suites)} suites"
        )
    steps = tuple(
        HistoryStep(
            label=str(labels[i + 1]),
            comparison=compare_runs(
                suites[i], suites[i + 1],
                confidence=confidence, min_effect=min_effect,
                seed=seed + 1000 * i,
            ),
        )
        for i in range(len(suites) - 1)
    )
    overall = compare_runs(
        suites[0], suites[-1],
        confidence=confidence, min_effect=min_effect,
        seed=seed + 1000 * len(suites),
    )
    return HistoryComparison(labels=tuple(str(c) for c in labels), steps=steps, overall=overall)
