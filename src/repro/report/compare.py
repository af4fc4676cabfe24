"""Rendering for benchmark regression comparisons (:mod:`repro.compare`).

Turns a :class:`~repro.compare.SuiteComparison` into the two shapes
humans read: a monospace verdict table (terminal, CI logs) and a full
markdown document (the ``compare_gate`` CI artifact).  The
machine-readable truth stays in ``compare_report.json``; these
renderings carry the same numbers.
"""

from __future__ import annotations

from ..errors import ValidationError
from .document import ReportBuilder
from .table import render_table

__all__ = ["compare_table", "compare_markdown"]

#: Verdict display order: worst first so regressions top the table.
_VERDICT_ORDER = {"regression": 0, "improvement": 1, "indistinguishable": 2, "incomparable": 3}


def _require_comparison(comparison) -> None:
    if not hasattr(comparison, "records") or not hasattr(comparison, "summary"):
        raise ValidationError(
            "expected a repro.compare.SuiteComparison, "
            f"got {type(comparison).__name__}"
        )


def _ci_text(ci) -> str:
    if ci is None:
        return "-"
    return f"[{ci.low:.3f}, {ci.high:.3f}]"


def _record_rows(comparison, *, significant_only: bool = False) -> list[list]:
    records = sorted(
        comparison.records,
        key=lambda r: (_VERDICT_ORDER.get(r.verdict, 9), r.key),
    )
    rows = []
    for r in records:
        if significant_only and r.verdict in ("indistinguishable", "incomparable"):
            continue
        rows.append(
            [
                r.key,
                f"{r.old_mean:.4g}",
                f"{r.new_mean:.4g}",
                f"{r.ratio:.3f}",
                _ci_text(r.ci),
                _ci_text(r.bootstrap_ci),
                r.verdict.upper() if r.verdict == "regression" else r.verdict,
                r.note,
            ]
        )
    return rows


def compare_table(comparison, *, significant_only: bool = False) -> str:
    """Monospace verdict table, one row per shared benchmark key.

    Ratios are ``current/baseline`` on cost metrics, so above 1 means
    slower.  ``significant_only`` restricts the table to regressions and
    improvements — the view a CI log wants.
    """
    _require_comparison(comparison)
    summary = comparison.summary()
    title = (
        f"Benchmark comparison ({int(comparison.confidence * 100)}% CIs, "
        f"min effect {comparison.min_effect:.0%}): {summary['records']} shared, "
        f"{summary['regressions']} regressed, {summary['improvements']} improved, "
        f"{summary['incomparable']} incomparable -> "
        f"{'OK' if comparison.ok else 'REGRESSION'}"
    )
    rows = _record_rows(comparison, significant_only=significant_only)
    if not rows:
        return title + "\n(no significant changes)"
    return render_table(
        ["benchmark", "baseline", "current", "ratio", "KJ CI", "bootstrap CI", "verdict", "note"],
        rows,
        aligns=["l", "r", "r", "r", "r", "r", "l", "l"],
        title=title,
    )


def compare_markdown(comparison, *, provenance=None) -> str:
    """Full markdown comparison document (summary + verdicts + drift notes).

    *provenance* is an optional dict (usually the current suite's
    provenance manifest) appended so the artifact records where the
    numbers came from.
    """
    _require_comparison(comparison)
    summary = comparison.summary()
    builder = ReportBuilder(
        title="Benchmark regression report "
        + ("(gate OK)" if comparison.ok else "(GATE FAILED)")
    )
    builder.add_section(
        "Summary",
        "\n".join(
            [
                f"- verdict: {'**OK**' if comparison.ok else '**REGRESSION**'}",
                f"- confidence: {comparison.confidence:.0%} effect-size CIs "
                f"(Kalibera–Jones ratio of means), minimum effect "
                f"{comparison.min_effect:.0%}",
                f"- shared benchmarks: {summary['records']}",
                f"- regressions: **{summary['regressions']}**, improvements: "
                f"{summary['improvements']}, indistinguishable: "
                f"{summary['indistinguishable']}, incomparable: "
                f"{summary['incomparable']}",
                f"- only in baseline: {summary['only_old']}, only in current: "
                f"{summary['only_new']}",
            ]
        ),
    )
    builder.add_section("Verdicts", "```\n" + compare_table(comparison) + "\n```")
    regressions = comparison.regressions
    if regressions:
        lines = [
            f"- **{r.key}**: {r.old_mean:.4g} -> {r.new_mean:.4g} {r.unit} "
            f"(x{r.ratio:.3f}, CI {_ci_text(r.ci)})"
            + (f" — {r.note}" if r.note else "")
            for r in regressions
        ]
        builder.add_section(
            "Regressions",
            "\n".join(lines)
            + "\n\nSee docs/COMPARE.md for gate semantics and how to "
            "re-record the baseline after an accepted change.",
        )
    incomparable = comparison.incomparable
    if incomparable:
        builder.add_section(
            "Incomparable benchmarks",
            "\n".join(f"- {r.key}: {r.note}" for r in incomparable)
            + "\n\nThese never fail the gate: without independent runs on "
            "both sides there is no defensible confidence interval "
            "(paper Rule 7).",
        )
    if comparison.only_old or comparison.only_new:
        builder.add_section(
            "Coverage drift",
            "\n".join(
                [f"- removed since baseline: `{k}`" for k in comparison.only_old]
                + [f"- new since baseline: `{k}`" for k in comparison.only_new]
            ),
        )
    if provenance:
        builder.add_provenance(provenance)
    return builder.render()
