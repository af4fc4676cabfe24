"""Registry entries of the paper's figures and Table 1.

Each entry pairs a builder from :mod:`repro.report.figures` (or the
survey, for Table 1) with a Vega-Lite adapter and a text summary; the
numbers EXPERIMENTS.md quotes for the paper's figures are the ``.txt``
artifacts these summaries write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..stats.compare import TestOutcome
from ..survey import (
    CONFERENCES,
    PaperRecord,
    ScoreBox,
    category_totals,
    extras_totals,
    load_survey,
    not_applicable_count,
    render_table1_grid,
    score_boxes,
    trend_test,
)
from . import figures as _figs
from .registry import FigureEntry
from .vega import (
    vl_band_line_chart,
    vl_box_chart,
    vl_density_chart,
    vl_line_chart,
    vl_qq_chart,
)


def _f(values: Any) -> list[float]:
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _text(title: str, rows: Iterable[str]) -> str:
    return "\n".join([title, *rows])



def _vega_fig1(fig: _figs.Fig1HPL) -> dict[str, Any]:
    # Rate labels sit at the time that produced them: max rate = min time.
    rates = dict(fig.annotation_rows())
    s = fig.summary
    annotations = [
        (f"Max {rates['Max']:.2f} Tflop/s", s.minimum),
        (f"Median {rates['Median']:.2f} Tflop/s", s.median),
        (f"Mean {rates['Arithmetic Mean']:.2f} Tflop/s", s.mean),
        (f"Min {rates['Min']:.2f} Tflop/s", s.maximum),
    ]
    return vl_density_chart(
        {"HPL completion": (_f(fig.density_x), _f(fig.density_y))},
        title="Fig 1: HPL completion-time distribution",
        xlabel="completion time (s)",
        annotations=annotations,
    )


def _text_fig1(fig: _figs.Fig1HPL) -> str:
    rows = [*fig.annotation_rows(), ("Theoretical peak", fig.peak_tflops)]
    s, ci = fig.summary, fig.median_ci99
    return _text("Figure 1: HPL annotations", [
        *(f"{k:<16} {v:8.2f} Tflop/s" for k, v in rows),
        f"completion times: n={s.n}, median {s.median:.1f} s "
        f"(99% CI [{ci.low:.1f}, {ci.high:.1f}]), "
        f"range [{s.minimum:.1f}, {s.maximum:.1f}] s",
    ])


def _vega_fig2(fig: _figs.Fig2Normalization) -> dict[str, Any]:
    return vl_qq_chart(
        [
            {
                "name": v.name,
                "theoretical": _f(v.qq_theoretical),
                "sample": _f(v.qq_sample),
            }
            for v in fig.variants
        ],
        title="Fig 2: normalization strategies (normal Q-Q)",
    )


def _text_fig2(fig: _figs.Fig2Normalization) -> str:
    return _text("Figure 2: normalization ladder", (
        f"{v.name:<12} k={v.k:<5} n={v.data.size:<8} QQ={v.report.qq_corr:.4f} "
        f"skew={v.report.skew:.3f} Shapiro p={v.report.shapiro.p_value:.2e} "
        f"normal={v.report.plausibly_normal}"
        for v in fig.variants
    ))


def _vega_fig3(fig: _figs.Fig3Significance) -> dict[str, Any]:
    return vl_density_chart(
        {
            fig.dora.name: (_f(fig.dora.density_x), _f(fig.dora.density_y)),
            fig.pilatus.name: (
                _f(fig.pilatus.density_x), _f(fig.pilatus.density_y),
            ),
        },
        title="Fig 3: latency distributions, Piz Dora vs Pilatus",
        xlabel="latency (µs)",
        annotations=[
            (f"{fig.dora.name} median", fig.dora.summary.median),
            (f"{fig.pilatus.name} median", fig.pilatus.summary.median),
        ],
    )


def _text_fig3(fig: _figs.Fig3Significance) -> str:
    rows = [
        f"{s.name:<10} min {s.summary.minimum:.2f} us, "
        f"median {s.summary.median:.3f} "
        f"(99% CI [{s.median_ci99.low:.3f}, {s.median_ci99.high:.3f}]), "
        f"mean {s.summary.mean:.3f} "
        f"(99% CI [{s.mean_ci99.low:.3f}, {s.mean_ci99.high:.3f}]), "
        f"max {s.summary.maximum:.2f}"
        for s in (fig.dora, fig.pilatus)
    ]
    kw = fig.kruskal
    rows += [
        f"Kruskal-Wallis H = {kw.statistic:.1f}, p = {kw.p_value:.3g} "
        f"-> medians differ: {fig.medians_differ_significantly}",
        f"median 99% CIs overlap: {fig.median_cis_overlap}; "
        f"mean 99% CIs overlap: {fig.mean_cis_overlap}",
    ]
    return _text("Figure 3: two-system significance", rows)


def _vega_fig4(qc: Any) -> dict[str, Any]:
    rows = [
        {
            "x": float(tau),
            "mid": float(res.coef[0]),
            "low": float(res.low[0]),
            "high": float(res.high[0]),
        }
        for tau, res in zip(qc.taus, qc.difference)
    ]
    return vl_band_line_chart(
        rows,
        title=(
            "Fig 4: per-quantile latency difference (Pilatus − Piz Dora); "
            f"mean difference {qc.mean_difference:.3f} µs"
        ),
        xlabel="quantile τ",
        ylabel="difference (µs)",
    )


def _text_fig4(qc: Any) -> str:
    rows = [
        f"tau={t:.1f}  Dora {i.coef[0]:.3f} us  diff {d.coef[0]:+.3f} us "
        f"(95% CI [{d.low[0]:+.3f}, {d.high[0]:+.3f}])"
        for t, i, d in zip(qc.taus, qc.intercept, qc.difference)
    ]
    rows.append(f"mean difference {qc.mean_difference:+.3f} us; "
                f"crossover at {qc.crossover_taus()}")
    return _text("Figure 4: quantile regression", rows)


def _vega_fig5(fig: _figs.Fig5Reduce) -> dict[str, Any]:
    rows = [
        {
            "x": pt.p,
            "mid": pt.median_us,
            "low": pt.q25_us,
            "high": pt.q75_us,
            "series": "power of two" if pt.power_of_two else "other",
        }
        for pt in fig.points
    ]
    # One quartile band over all points; the series split colors the line.
    return vl_band_line_chart(
        rows,
        title=f"Fig 5: MPI_Reduce completion vs processes ({fig.n_runs} runs)",
        xlabel="processes",
        ylabel="completion time (µs)",
        series_names=["power of two", "other"],
        legend_title="process count",
    )


def _text_fig5(fig: _figs.Fig5Reduce) -> str:
    rows = [
        f"P={pt.p:<3} {'2^k' if pt.power_of_two else '   '} "
        f"median {pt.median_us:6.2f} us  IQR [{pt.q25_us:.2f}, {pt.q75_us:.2f}]"
        for pt in fig.points
    ]
    pof2 = [pt.median_us for pt in fig.points if pt.power_of_two]
    others = [pt.median_us for pt in fig.points if not pt.power_of_two]
    rows += [
        f"power-of-two advantage: {fig.pof2_advantage():.3f}x",
        f"median over powers of two: {np.median(pof2):.2f} us; "
        f"over others: {np.median(others):.2f} us",
    ]
    return _text(f"Figure 5: reduce scaling ({fig.n_runs} runs per point)", rows)


def _vega_fig6(fig: _figs.Fig6RankVariation) -> dict[str, Any]:
    boxes = [
        {
            "x": b["rank"],
            "q1": b["q1"],
            "median": b["median"],
            "q3": b["q3"],
            "lo": b["whisker_low"],
            "hi": b["whisker_high"],
        }
        for b in fig.boxstats
    ]
    return vl_box_chart(
        boxes,
        title=(
            f"Fig 6: per-rank MPI_Reduce completion "
            f"({fig.nprocs} ranks, {fig.n_runs} runs)"
        ),
        xlabel="rank",
        ylabel="completion time (µs)",
    )


def _text_fig6(fig: _figs.Fig6RankVariation) -> str:
    rs = fig.rank_summary
    meds = [b["median"] for b in fig.boxstats]
    overall = float(np.median(meds))
    return _text(f"Figure 6: rank variation ({fig.nprocs} ranks, {fig.n_runs} runs)", [
        f"ANOVA F = {rs.anova.statistic:.1f} (p = {rs.anova.p_value:.2e}); "
        f"Kruskal-Wallis H = {rs.kruskal.statistic:.1f} (p = {rs.kruskal.p_value:.2e})",
        f"homogeneous: {rs.homogeneous} -> {rs.recommendation()}",
        f"slow ranks (median > 1.5x cross-rank median): {fig.slow_ranks()}",
        f"cross-rank median of medians {overall:.2f} us; slowest rank median "
        f"{max(meds):.2f} us = {max(meds) / overall:.1f}x",
    ])


def _vega_fig7ab(fig: _figs.Fig7Bounds) -> dict[str, Any]:
    return vl_line_chart(
        list(fig.ps),
        {
            "measured": list(fig.measured_speedups),
            "ideal": list(fig.ideal_speedups),
            "Amdahl": list(fig.amdahl_speedups),
        },
        title="Fig 7(b): Pi speedup against bounds models",
        xlabel="processes",
        ylabel="speedup",
        legend_title="bound",
    )


def _text_fig7ab(fig: _figs.Fig7Bounds) -> str:
    rows = [
        f"P={p:<3} time {t * 1e3:7.3f} ms  speedup measured {s:5.2f}  "
        f"overheads {so:5.2f}  Amdahl {sa:5.2f}  ideal {si:5.2f}"
        for p, t, s, so, sa, si in zip(
            fig.ps, fig.measured_times, fig.measured_speedups,
            fig.overhead_speedups, fig.amdahl_speedups, fig.ideal_speedups,
        )
    ]
    rows += [
        f"95% CI within 5% of the mean at every point: {fig.ci_within_5pct}",
        "median relative error: "
        + ", ".join(f"{k}={v:.3f}" for k, v in fig.model_error().items()),
    ]
    return _text("Figure 7(a)/(b): bounds models", rows)


def _vega_fig7c(fig: _figs.Fig7cPlots) -> dict[str, Any]:
    s = fig.summary
    return vl_density_chart(
        {"latency": (_f(fig.violin_x), _f(fig.violin_density))},
        title="Fig 7(c): latency distribution with box statistics",
        xlabel="latency (µs)",
        annotations=[
            ("q25", s.q25),
            ("median", s.median),
            ("q75", s.q75),
            ("whisker low", fig.whisker_low),
            ("whisker high", fig.whisker_high),
        ],
    )


def _text_fig7c(fig: _figs.Fig7cPlots) -> str:
    s, ci = fig.summary, fig.median_ci95
    return _text(f"Figure 7(c): latency distribution (n={s.n}, us)", [
        f"whiskers (1.5 IQR) [{fig.whisker_low:.3f}, {fig.whisker_high:.3f}]",
        f"q1 {s.q25:.3f}, median {s.median:.3f}, q3 {s.q75:.3f}, max {s.maximum:.3f}",
        f"median 95% CI [{ci.low:.4f}, {ci.high:.4f}]",
        f"mean {s.mean:.3f}, geometric mean {fig.geometric_mean:.3f}",
    ])


# -- Table 1 ------------------------------------------------------------


@dataclass(frozen=True)
class Table1Survey:
    """Table 1: the literature survey and every number derived from it.

    ``totals`` maps each category to (documented, applicable) papers,
    ``boxes`` holds the per-venue-year design-score box statistics of
    the table's right margin, ``extras`` the running-text counts, and
    ``trends`` the per-conference Kruskal–Wallis test across years.
    """

    records: tuple[PaperRecord, ...]
    totals: dict[str, tuple[int, int]]
    not_applicable: int
    total: int
    boxes: tuple[ScoreBox, ...]
    extras: dict[str, int]
    trends: dict[str, TestOutcome]


def _build_table1(*, seed: int = 0) -> Table1Survey:
    """Table 1 from the encoded survey dataset.

    The dataset is a fixed reconstruction (see :func:`load_survey`), so
    *seed* — part of every simulated figure's build signature — cannot
    change it.
    """
    records = load_survey()
    na, total = not_applicable_count(records)
    return Table1Survey(
        records=records,
        totals=category_totals(records),
        not_applicable=na,
        total=total,
        boxes=tuple(score_boxes(records)),
        extras=extras_totals(records),
        trends={conf: trend_test(records, conf) for conf in CONFERENCES},
    )


def _vega_table1(fig: Table1Survey) -> dict[str, Any]:
    boxes = [
        {
            "x": f"{b.conference} {b.year}",
            "q1": b.q1,
            "median": b.median,
            "q3": b.q3,
            "lo": b.minimum,
            "hi": b.maximum,
        }
        for b in fig.boxes
    ]
    return vl_box_chart(
        boxes,
        title="Table 1: design-score box plots per venue-year",
        xlabel="venue-year",
        ylabel="documented design categories (0-9)",
    )


def _text_table1(fig: Table1Survey) -> str:
    n_app = fig.total - fig.not_applicable
    return _text(
        f"Table 1: literature survey ({fig.not_applicable}/{fig.total} "
        f"papers not applicable)",
        [
            render_table1_grid(fig.records),
            "",
            f"category totals (of {n_app} applicable papers)",
            *(f"{cat:<12} {got:>3}/{n}" for cat, (got, n) in fig.totals.items()),
            "",
            "design-score box plots (min / q1 / median / q3 / max)",
            *(
                f"{b.conference} {b.year}  {b.minimum:g} / {b.q1:g} / "
                f"{b.median:g} / {b.q3:g} / {b.maximum:g}"
                for b in fig.boxes
            ),
            "",
            f"running-text observations (of {n_app} applicable papers)",
            *(f"{k:<25} {v:>3}" for k, v in fig.extras.items()),
            "",
            "year-over-year trend (Kruskal-Wallis across years)",
            *(
                f"{conf:<6} H = {t.statistic:.2f}, p = {t.p_value:.3f} "
                f"-> scores differ across years: {t.significant()}"
                for conf, t in fig.trends.items()
            ),
        ],
    )


ENTRIES: tuple[FigureEntry, ...] = (
    FigureEntry(
        name="fig1_hpl",
        title="HPL completion-time distribution",
        description="Figure 1: 50 HPL runs on 64 nodes, rate labels "
                    "from time quantiles.",
        build=_figs.fig1_hpl,
        to_vega=_vega_fig1,
        to_text=_text_fig1,
        params={"n_runs": 50},
        quick_params={"n_runs": 12},
        version=2,
    ),
    FigureEntry(
        name="fig2_normalization",
        title="Normalization strategies (Q-Q panels)",
        description="Figure 2: original/log/block-mean latencies "
                    "against normal quantiles.",
        build=_figs.fig2_normalization,
        to_vega=_vega_fig2,
        to_text=_text_fig2,
        params={"samples": 1_000_000},
        quick_params={"samples": 20_000},
        version=2,
    ),
    FigureEntry(
        name="fig3_significance",
        title="Two-system latency significance",
        description="Figure 3: Piz Dora vs Pilatus latency densities "
                    "with median annotations.",
        build=_figs.fig3_significance,
        to_vega=_vega_fig3,
        to_text=_text_fig3,
        params={"samples": 1_000_000},
        quick_params={"samples": 20_000},
        version=2,
    ),
    FigureEntry(
        name="fig4_quantreg",
        title="Quantile-regression difference",
        description="Figure 4: per-quantile Pilatus − Dora difference "
                    "with bootstrap CIs.",
        build=_figs.fig4_quantile_regression,
        to_vega=_vega_fig4,
        to_text=_text_fig4,
        params={"samples": 1_000_000},
        quick_params={"samples": 5_000},
        version=2,
    ),
    FigureEntry(
        name="fig5_reduce",
        title="MPI_Reduce scaling",
        description="Figure 5: reduce completion vs process count, "
                    "quartile band, powers of two marked.",
        build=_figs.fig5_reduce_scaling,
        to_vega=_vega_fig5,
        to_text=_text_fig5,
        params={"n_runs": 1000},
        quick_params={"process_counts": tuple(range(2, 18)),
                      "n_runs": 60},
        version=2,
    ),
    FigureEntry(
        name="fig6_rank_variation",
        title="Per-rank completion variation",
        description="Figure 6: per-process box statistics for "
                    "MPI_Reduce.",
        build=_figs.fig6_rank_variation,
        to_vega=_vega_fig6,
        to_text=_text_fig6,
        params={"nprocs": 64, "n_runs": 1000},
        quick_params={"nprocs": 16, "n_runs": 60},
        version=2,
    ),
    FigureEntry(
        name="fig7ab_bounds",
        title="Speedup against bounds models",
        description="Figure 7(a)/(b): measured Pi scaling against "
                    "ideal/Amdahl bounds.",
        build=_figs.fig7ab_bounds,
        to_vega=_vega_fig7ab,
        to_text=_text_fig7ab,
        params={"n_runs": 10},
        quick_params={"process_counts": (1, 2, 4, 8), "n_runs": 6},
        version=2,
    ),
    FigureEntry(
        name="fig7c_distribution",
        title="Latency distribution, box + violin",
        description="Figure 7(c): violin density with box statistics "
                    "of 10⁶ latencies.",
        build=_figs.fig7c_distribution,
        to_vega=_vega_fig7c,
        to_text=_text_fig7c,
        params={"samples": 1_000_000},
        quick_params={"samples": 20_000},
        version=2,
    ),
    FigureEntry(
        name="table1_survey",
        title="Literature survey (Table 1)",
        description="Table 1: documentation practice in 120 papers "
                    "from three conferences, 2011-2014.",
        build=_build_table1,
        to_vega=_vega_table1,
        to_text=_text_table1,
    ),
)
