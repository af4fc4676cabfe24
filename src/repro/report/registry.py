"""The figure registry: named generators behind a content-addressed cache.

Every figure the library can produce is one :class:`FigureEntry` in
:data:`FIGURES` — the paper's seven reproduction figures and Table 1,
plus the scenario figures (million-rank collective scaling, chaos
degradation, campaign trajectory).  An entry declares how to *build*
the figure dataclass, how to convert it to a Vega-Lite spec, and how to
summarize it as text; the surrounding :class:`FigureService` renders
each entry to the four artifacts of :data:`FORMATS` —

* ``<key>.vl.json``  — the Vega-Lite spec (strict JSON),
* ``<key>.json``     — figure data + provenance (:func:`figure_to_json`),
* ``<key>.html``     — a standalone page embedding the spec,
* ``<key>.txt``      — the figure's numbers as a plain-text summary —

where ``<key>`` is the figure's *content key*: a digest of the entry
name/version, its build parameters and seed, the simulation kernel
version, and (for campaign figures) the campaign's on-disk dataset and
shard-store state.  Unchanged inputs ⇒ unchanged key ⇒ the service
serves the cached bytes without rebuilding anything; new data changes
the key, so stale artifacts can never be served as current (Rule 9's
regeneration guarantee, mechanized).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .._atomic import write_atomic
from ..errors import ValidationError
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
from .export import figure_to_json
from . import figures as _figs
from .vega import (
    vl_band_line_chart,
    vl_box_chart,
    vl_density_chart,
    vl_line_chart,
    vl_qq_chart,
    vl_to_json,
    vl_html,
)

__all__ = [
    "ArtifactFormat",
    "FORMATS",
    "FigureEntry",
    "FigureService",
    "RenderedFigure",
    "FIGURES",
    "campaign_digest",
    "content_key",
]

# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class FigureEntry:
    """One named figure: how to build it and how to draw it.

    ``build(params)`` returns the figure dataclass; ``to_vega(figure)``
    converts it to a Vega-Lite spec dict and ``to_text(figure)`` to a
    plain-text summary of its numbers.  ``params`` are the
    full-fidelity defaults; ``quick_params`` overlay them for fast
    CI/test renders.  ``needs_campaign`` entries build from recorded
    campaign data instead of fresh simulation, and key on the campaign's
    content (see :func:`campaign_digest`).  Bump ``version`` whenever
    the builder or spec layout changes meaning — it invalidates every
    cached render of this figure.
    """

    name: str
    title: str
    description: str
    build: Callable[..., Any]
    to_vega: Callable[[Any], dict[str, Any]]
    to_text: Callable[[Any], str]
    params: Mapping[str, Any] = field(default_factory=dict)
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    needs_campaign: bool = False
    version: int = 1


def _f(values: Any) -> list[float]:
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _text(title: str, rows: Iterable[str]) -> str:
    return "\n".join([title, *rows])


# -- paper figures ------------------------------------------------------


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


# -- scenario figures ---------------------------------------------------


def _build_scale_collectives(
    *,
    rank_counts: tuple[int, ...] = (1_024, 8_192, 65_536, 262_144, 1_000_000),
    n_runs: int = 3,
    seed: int = 0,
) -> "ScaleCollectives":
    """Median reduce/allreduce completion on the XC-scale dragonfly."""
    from ..simsys.machine import xc_scale
    from ..simsys.mpi import SimComm

    cores = 8
    points = []
    for p in rank_counts:
        machine = xc_scale(-(-int(p) // cores), deterministic=True)
        comm = SimComm(machine, int(p), placement="packed", seed=seed)
        red = comm.reduce(8, n_runs).max(axis=1) * 1e6
        allred = comm.allreduce(8, n_runs).max(axis=1) * 1e6
        points.append(
            ScalePoint(
                p=int(p),
                reduce_median_us=float(np.median(red)),
                allreduce_median_us=float(np.median(allred)),
            )
        )
    return ScaleCollectives(points=tuple(points), n_runs=n_runs)


@dataclass(frozen=True)
class ScalePoint:
    """Collective completion medians at one rank count."""

    p: int
    reduce_median_us: float
    allreduce_median_us: float


@dataclass(frozen=True)
class ScaleCollectives:
    """Million-rank scaling of tree collectives on ``xc_scale``."""

    points: tuple[ScalePoint, ...]
    n_runs: int


def _vega_scale(fig: ScaleCollectives) -> dict[str, Any]:
    ps = [pt.p for pt in fig.points]
    return vl_line_chart(
        ps,
        {
            "reduce": [pt.reduce_median_us for pt in fig.points],
            "allreduce": [pt.allreduce_median_us for pt in fig.points],
        },
        title=(
            f"Collective completion vs ranks on xc_scale "
            f"(median of {fig.n_runs} runs)"
        ),
        xlabel="ranks",
        ylabel="completion time (µs)",
        x_log=True,
        y_log=True,
        legend_title="collective",
    )


def _text_scale(fig: ScaleCollectives) -> str:
    return _text(f"Collective completion on xc_scale (median of {fig.n_runs} runs)", (
        f"P={pt.p:<8} reduce {pt.reduce_median_us:9.2f} us  "
        f"allreduce {pt.allreduce_median_us:9.2f} us"
        for pt in fig.points
    ))


@dataclass(frozen=True)
class ChaosDegradation:
    """Latency quantiles on a clean vs fault-injected machine."""

    profiles: tuple[str, ...]
    taus: tuple[float, ...]
    quantiles_us: tuple[tuple[float, ...], ...]  # per profile, per tau
    samples: int


def _build_chaos_degradation(
    *,
    profiles: tuple[str, ...] = ("none", "smoke", "heavy"),
    samples: int = 100_000,
    seed: int = 0,
) -> ChaosDegradation:
    """Ping-pong latency quantiles under escalating fault profiles.

    Uses :func:`repro.chaos.perturbed_machine` to apply each profile's
    environmental degradation (noise storms, stragglers) to the same base
    machine, then compares the latency quantile curves — the figure a
    degradation report shows next to its check table.
    """
    from ..chaos import FaultPlan, get_profile, perturbed_machine
    from ..simsys.machine import piz_dora
    from ..simsys.mpi import SimComm

    taus = tuple(float(t) for t in np.round(np.arange(0.1, 1.0, 0.1), 2))
    base = piz_dora()
    rows = []
    for prof_name in profiles:
        plan = FaultPlan(profile=get_profile(prof_name), seed=seed)
        machine = perturbed_machine(base, plan)
        comm = SimComm(machine, 2, placement="one_per_node", seed=seed)
        lat = comm.ping_pong(64, samples) * 1e6
        rows.append(tuple(float(q) for q in np.quantile(lat, taus)))
    return ChaosDegradation(
        profiles=tuple(profiles), taus=taus,
        quantiles_us=tuple(rows), samples=samples,
    )


def _vega_chaos(fig: ChaosDegradation) -> dict[str, Any]:
    return vl_line_chart(
        list(fig.taus),
        {p: list(q) for p, q in zip(fig.profiles, fig.quantiles_us)},
        title=(
            f"Latency quantiles under fault profiles "
            f"({fig.samples:,} ping-pongs each)"
        ),
        xlabel="quantile τ",
        ylabel="latency (µs)",
        legend_title="fault profile",
    )


def _text_chaos(fig: ChaosDegradation) -> str:
    cols = (0, len(fig.taus) // 2, -1)  # lowest, middle and highest τ
    return _text(f"Latency quantiles under fault profiles ({fig.samples:,} ping-pongs)", (
        f"{name:<8} " + "  ".join(f"q{fig.taus[c]:.1f} {q[c]:8.3f} us" for c in cols)
        for name, q in zip(fig.profiles, fig.quantiles_us)
    ))


@dataclass(frozen=True)
class CampaignTrajectory:
    """Per-dataset medians and quartiles of one recorded campaign."""

    campaign: str
    datasets: tuple[str, ...]
    units: tuple[str, ...]
    medians: tuple[float, ...]
    q25s: tuple[float, ...]
    q75s: tuple[float, ...]
    ns: tuple[int, ...]


def _build_campaign_trajectory(*, campaign: Any) -> CampaignTrajectory:
    """Summarize every dataset of a campaign, spilled shards included.

    Statistics stream through :meth:`MeasurementSet.summary`, so a
    spilled, larger-than-RAM dataset contributes its quartiles without
    being re-materialized as JSON.
    """
    if campaign is None:
        raise ValidationError(
            "figure 'campaign_trajectory' needs a campaign; "
            "pass --campaign to render it"
        )
    names, units, meds, q25s, q75s, ns = [], [], [], [], [], []
    for name in campaign.names():
        ms = campaign.load(name)
        s = ms.summary()
        names.append(name)
        units.append(ms.unit)
        meds.append(s.median)
        q25s.append(s.q25)
        q75s.append(s.q75)
        ns.append(ms.n)
    if not names:
        raise ValidationError(
            f"campaign {campaign.name!r} has no datasets to plot"
        )
    return CampaignTrajectory(
        campaign=campaign.name,
        datasets=tuple(names),
        units=tuple(units),
        medians=tuple(meds),
        q25s=tuple(q25s),
        q75s=tuple(q75s),
        ns=tuple(ns),
    )


def _vega_trajectory(fig: CampaignTrajectory) -> dict[str, Any]:
    unit = fig.units[0] if len(set(fig.units)) == 1 else "mixed units"
    boxes = [
        {
            "x": name,
            "q1": q25,
            "median": med,
            "q3": q75,
            "lo": q25,
            "hi": q75,
        }
        for name, med, q25, q75 in zip(
            fig.datasets, fig.medians, fig.q25s, fig.q75s,
        )
    ]
    return vl_box_chart(
        boxes,
        title=f"Campaign {fig.campaign!r}: per-dataset median and IQR",
        xlabel="dataset",
        ylabel=unit,
    )


def _text_trajectory(fig: CampaignTrajectory) -> str:
    rows = zip(fig.datasets, fig.units, fig.medians, fig.q25s, fig.q75s, fig.ns)
    return _text(f"Campaign {fig.campaign!r}: per-dataset median and IQR", (
        f"{name:<20} median {med:.4g} {unit}  IQR [{q25:.4g}, {q75:.4g}]  n={n}"
        for name, unit, med, q25, q75, n in rows
    ))


# -- the registry itself ------------------------------------------------

FIGURES: dict[str, FigureEntry] = {
    e.name: e
    for e in (
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
        FigureEntry(
            name="scale_collectives",
            title="Million-rank collective scaling",
            description="Median reduce/allreduce completion on the "
                        "xc_scale dragonfly up to 10⁶ ranks.",
            build=_build_scale_collectives,
            to_vega=_vega_scale,
            to_text=_text_scale,
            params={},
            quick_params={"rank_counts": (256, 2_048, 16_384),
                          "n_runs": 2},
        ),
        FigureEntry(
            name="chaos_degradation",
            title="Latency under fault profiles",
            description="Ping-pong latency quantiles on clean vs "
                        "fault-injected machines.",
            build=_build_chaos_degradation,
            to_vega=_vega_chaos,
            to_text=_text_chaos,
            params={},
            quick_params={"samples": 5_000},
        ),
        FigureEntry(
            name="campaign_trajectory",
            title="Campaign dataset trajectory",
            description="Per-dataset median and IQR of a recorded "
                        "campaign (spilled shards included).",
            build=_build_campaign_trajectory,
            to_vega=_vega_trajectory,
            to_text=_text_trajectory,
            needs_campaign=True,
        ),
    )
}


# ----------------------------------------------------------- content keys


def _file_digest(path: Path, h: "hashlib._Hash") -> None:
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)


def campaign_digest(campaign: Any) -> str:
    """A digest of everything a campaign figure can depend on.

    Covers the index, every dataset file (which embeds provenance and,
    for spilled sets, the store stub), and the content digest of every
    listed shard-store entry — so appending a dataset, overwriting one,
    or losing a shard changes the digest, while a byte-identical campaign
    always produces the same one.  No dataset file or spilled value is
    read: the index records each dataset file's digest at write (checked
    by :meth:`repro.core.Campaign.load`), and the store each entry's at
    append (:meth:`repro.store.ShardStore.entry_digests`, one size check
    per shard).  In-place edits are caught where the bytes are read:
    ``Campaign.load`` for dataset files, ``ShardStore.verify`` for shard
    bit rot.  An index entry without a recorded digest (written before
    the index kept them) is hashed from its file as it always was, so a
    legacy campaign keeps its key.
    """
    h = hashlib.blake2b(digest_size=16)
    index, datasets = campaign._index()
    h.update(index)
    for d in sorted(datasets, key=lambda d: d["name"]):
        if "digest" not in d:
            h.update(d["name"].encode())
            _file_digest(campaign.path / d["file"], h)
    if campaign.has_store():
        for fp, digest in campaign.store().entry_digests().items():
            h.update(fp.encode())
            h.update((digest or "quarantined").encode())
    return h.hexdigest()


def content_key(
    entry: FigureEntry,
    *,
    params: Mapping[str, Any],
    seed: int = 0,
    campaign: Any = None,
) -> str:
    """The content address of one render of *entry*.

    Pure function of the figure identity (name, version), its inputs
    (params, seed, campaign content for campaign figures), and the
    simulation kernel version for simulated figures — the RNG layout is
    an input to the numbers, so a kernel bump must invalidate renders.
    """
    from ..simsys.schedules import KERNEL_VERSION

    h = hashlib.blake2b(digest_size=16)
    h.update(f"figure:{entry.name}:v{entry.version}".encode())
    h.update(json.dumps(_canon(params), sort_keys=True).encode())
    if entry.needs_campaign:
        if campaign is None:
            raise ValidationError(
                f"figure {entry.name!r} needs a campaign to key on"
            )
        h.update(campaign_digest(campaign).encode())
    else:
        h.update(f"seed:{seed}".encode())
        h.update(f"kernel:{KERNEL_VERSION}".encode())
    return h.hexdigest()


def _canon(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# -------------------------------------------------------------- service


@dataclass(frozen=True)
class ArtifactFormat:
    """One artifact a render writes: file suffix, HTTP content type, and
    ``write(entry, figure, spec)`` returning the artifact's text."""

    suffix: str
    content_type: str
    write: Callable[[FigureEntry, Any, dict[str, Any]], str]


_JSON = "application/json; charset=utf-8"

#: Every artifact of a render, by suffix.  ``vl.json`` precedes ``json``
#: so that matching a file name against the suffixes in order finds the
#: longer one first.
FORMATS: dict[str, ArtifactFormat] = {f.suffix: f for f in (
    ArtifactFormat("vl.json", _JSON, lambda e, fig, spec: vl_to_json(spec, indent=2)),
    ArtifactFormat("json", _JSON, lambda e, fig, spec: figure_to_json(fig, indent=2)),
    ArtifactFormat("html", "text/html; charset=utf-8",
                   lambda e, fig, spec: vl_html(spec, title=e.title)),
    ArtifactFormat("txt", "text/plain; charset=utf-8",
                   lambda e, fig, spec: e.to_text(fig) + "\n"),
)}


@dataclass(frozen=True)
class RenderedFigure:
    """One render: where its artifacts live and how it was served."""

    name: str
    key: str
    cached: bool
    directory: Path

    def path(self, fmt: str) -> Path:
        """The artifact path for *fmt*, one of :data:`FORMATS`."""
        if fmt not in FORMATS:
            raise ValidationError(
                f"unknown figure format {fmt!r}; have {list(FORMATS)}"
            )
        return self.directory / f"{self.key}.{fmt}"

    def text(self) -> str:
        """The plain-text summary this render wrote."""
        return self.path("txt").read_text(encoding="utf-8")


class FigureService:
    """Renders registry figures into a content-addressed cache directory.

    The cache layout is ``<dir>/<figure>/<key>.{json,vl.json,html,txt}``
    plus ``<dir>/<figure>/current`` naming the latest key.  A render whose
    key already has every artifact of :data:`FORMATS` is a *cache hit*:
    the builder never runs, the bytes on disk are served as-is (and are
    byte-identical to the first render, since every serialization here is
    deterministic).
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        campaign: Any = None,
        quick: bool = False,
        seed: int = 0,
        metrics: Any = None,
        tracer: Any = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.campaign = campaign
        self.quick = bool(quick)
        self.seed = int(seed)
        self.metrics = metrics
        self.tracer = tracer
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- registry views --------------------------------------------------

    def names(self) -> list[str]:
        """Figures renderable right now (campaign figures need one)."""
        return [
            name
            for name, entry in sorted(FIGURES.items())
            if self.campaign is not None or not entry.needs_campaign
        ]

    def entry(self, name: str) -> FigureEntry:
        """The registry entry for *name*; ValidationError when unknown."""
        entry = FIGURES.get(name)
        if entry is None:
            raise ValidationError(
                f"unknown figure {name!r}; have {sorted(FIGURES)}"
            )
        return entry

    def params_for(self, entry: FigureEntry) -> dict[str, Any]:
        """Effective build params (quick overrides applied when set)."""
        params = dict(entry.params)
        if self.quick:
            params.update(entry.quick_params)
        return params

    def content_key(self, name: str) -> str:
        """The current content key of *name* (see :func:`content_key`)."""
        entry = self.entry(name)
        return content_key(
            entry,
            params=self.params_for(entry),
            seed=self.seed,
            campaign=self.campaign if entry.needs_campaign else None,
        )

    def describe(self, name: str) -> dict[str, Any]:
        """The /figures catalog record for one figure."""
        entry = self.entry(name)
        return {
            "name": entry.name,
            "title": entry.title,
            "description": entry.description,
            "version": entry.version,
            "needs_campaign": entry.needs_campaign,
            "key": self.content_key(name),
            "formats": list(FORMATS),
        }

    # -- rendering -------------------------------------------------------

    def render(self, name: str, *, key: str | None = None) -> RenderedFigure:
        """Render (or serve from cache) every artifact of *name*.

        *key* is the :meth:`content_key` the caller already computed for
        this request (the server keys a figure for its ETag first); it
        saves keying the figure twice.
        """
        entry = self.entry(name)
        if key is None:
            key = self.content_key(name)
        rendered = RenderedFigure(
            name=name, key=key, cached=True, directory=self.cache_dir / name,
        )
        if all(rendered.path(fmt).exists() for fmt in FORMATS):
            self._count("repro_serve_cache_hits_total")
            return rendered

        params = self.params_for(entry)
        if entry.needs_campaign:
            params["campaign"] = self.campaign
        elif "seed" not in params:
            params["seed"] = self.seed
        if self.tracer is not None:
            with self.tracer.span("figure-render", figure=name, key=key):
                figure = entry.build(**params)
        else:
            figure = entry.build(**params)
        spec = entry.to_vega(figure)

        rendered.directory.mkdir(parents=True, exist_ok=True)
        for fmt in FORMATS.values():
            write_atomic(rendered.path(fmt.suffix), fmt.write(entry, figure, spec))
        write_atomic(rendered.directory / "current", key + "\n")
        self._count("repro_serve_renders_total")
        return dataclasses.replace(rendered, cached=False)

    def payload(
        self, name: str, fmt: str, *, key: str | None = None
    ) -> tuple[bytes, RenderedFigure]:
        """The bytes of one artifact, rendering on a cache miss (*key* as
        for :meth:`render`)."""
        rendered = self.render(name, key=key)
        return rendered.path(fmt).read_bytes(), rendered

    def _count(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric).inc()
