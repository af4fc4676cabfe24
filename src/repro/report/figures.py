"""Figure-data builders: one function per figure of the paper.

Each ``figN_*`` function runs the relevant simulated experiment through the
library's analysis pipeline and returns a small dataclass holding exactly
the series/annotations the original figure shows.  The figure registry
(:mod:`repro.report.registry`) renders them as data, Vega-Lite, HTML and
text; plotting tools can consume them directly.

Sample sizes are parameters (the paper uses 10⁶ for the ping-pong figures);
defaults are full fidelity, tests use smaller n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import check_int
from ..core.summarize_ranks import RankSummary, per_rank_boxstats, summarize_across_ranks
from ..models.bounds import AmdahlBound, IdealScaling, ParallelOverheadBound
from ..simsys.machine import MachineSpec, piz_daint, piz_dora, pilatus
from ..simsys.mpi import SimComm
from ..simsys.workloads import HPLModel, PiWorkload, reduction_overhead_piz_daint
from ..stats.ci import ConfidenceInterval, mean_ci, median_ci
from ..stats.compare import TestOutcome, kruskal_wallis
from ..stats.density import GaussianKDE
from ..stats.normality import NormalityReport, diagnose, qq_points
from ..stats.normalize import block_means
from ..stats.quantreg import QuantileComparison, compare_quantiles
from ..stats.summaries import Summary, geometric_mean, summarize

__all__ = [
    "Fig1HPL",
    "fig1_hpl",
    "Fig2Variant",
    "Fig2Normalization",
    "fig2_normalization",
    "Fig3System",
    "Fig3Significance",
    "fig3_significance",
    "fig4_quantile_regression",
    "Fig5Point",
    "Fig5Reduce",
    "fig5_reduce_scaling",
    "Fig6RankVariation",
    "fig6_rank_variation",
    "Fig7Bounds",
    "fig7ab_bounds",
    "Fig7cPlots",
    "fig7c_distribution",
]


def _pingpong(machine: MachineSpec, n: int, seed: int) -> np.ndarray:
    """64 B ping-pong latencies (µs) between two nodes, the paper's setup."""
    comm = SimComm(machine, 2, placement="one_per_node", seed=seed)
    return comm.ping_pong(64, n) * 1e6


# ---------------------------------------------------------------- Figure 1


@dataclass(frozen=True)
class Fig1HPL:
    """Distribution of HPL completion times with the figure's annotations.

    Rates are in Tflop/s, times in seconds; ``density_x/density_y`` hold
    the KDE curve of completion times.
    """

    times: np.ndarray
    summary: Summary
    median_ci99: ConfidenceInterval
    density_x: np.ndarray
    density_y: np.ndarray
    peak_tflops: float
    rate_max: float
    rate_q95: float
    rate_median: float
    rate_mean: float
    rate_min: float

    def annotation_rows(self) -> list[tuple[str, float]]:
        """The five Tflop/s labels of Figure 1, fastest first."""
        return [
            ("Max", self.rate_max),
            ("95% Quantile", self.rate_q95),
            ("Median", self.rate_median),
            ("Arithmetic Mean", self.rate_mean),
            ("Min", self.rate_min),
        ]


def fig1_hpl(n_runs: int = 50, *, machine: MachineSpec | None = None, seed: int = 0) -> Fig1HPL:
    """Reproduce Figure 1: 50 HPL runs on 64 nodes of Piz Daint.

    Note the deliberate statistics: the *rate* labels come from quantiles
    of the time distribution (max rate = min time), and the mean rate is
    the total work over the mean time — Rule 3's cost-first aggregation.
    """
    check_int(n_runs, "n_runs", minimum=6)  # nonparametric median CI needs n > 5
    machine = machine or piz_daint(64)
    model = HPLModel(machine, seed=seed)
    times = model.run(n_runs)
    kde = GaussianKDE.from_sample(times)
    dx, dy = kde.grid(256)
    tf = 1e-12
    return Fig1HPL(
        times=times,
        summary=summarize(times),
        median_ci99=median_ci(times, 0.99),
        density_x=dx,
        density_y=dy,
        peak_tflops=machine.peak_flops * tf,
        rate_max=model.flops / times.min() * tf,
        rate_q95=model.flops / float(np.quantile(times, 0.05)) * tf,
        rate_median=model.flops / float(np.median(times)) * tf,
        rate_mean=model.flops / times.mean() * tf,
        rate_min=model.flops / times.max() * tf,
    )


# ---------------------------------------------------------------- Figure 2


@dataclass(frozen=True)
class Fig2Variant:
    """One normalization strategy: its data, Q-Q series, and diagnosis."""

    name: str
    k: int
    data: np.ndarray
    qq_theoretical: np.ndarray
    qq_sample: np.ndarray
    report: NormalityReport


@dataclass(frozen=True)
class Fig2Normalization:
    """All four panels of Figure 2 (original, log, k=100, k=1000)."""

    variants: tuple[Fig2Variant, ...]

    def variant(self, name: str) -> Fig2Variant:
        """Look up a panel by name (original/log/block_k100/block_k1000)."""
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(name)


def fig2_normalization(
    samples: int = 1_000_000, *, machine: MachineSpec | None = None, seed: int = 0,
    qq_points_n: int = 512,
) -> Fig2Normalization:
    """Reproduce Figure 2: normalizing 1M ping-pong samples on Piz Dora."""
    check_int(samples, "samples", minimum=10_000)
    machine = machine or piz_dora()
    lat = _pingpong(machine, samples, seed)

    def make(name: str, k: int, data: np.ndarray) -> Fig2Variant:
        theo, samp = qq_points(data)
        if theo.size > qq_points_n:
            idx = np.linspace(0, theo.size - 1, qq_points_n).astype(int)
            theo, samp = theo[idx], samp[idx]
        return Fig2Variant(
            name=name, k=k, data=data, qq_theoretical=theo, qq_sample=samp,
            report=diagnose(data),
        )

    variants = (
        make("original", 1, lat),
        make("log", 1, np.log(lat)),
        make("block_k100", 100, block_means(lat, 100)),
        make("block_k1000", 1000, block_means(lat, 1000)),
    )
    return Fig2Normalization(variants=variants)


# ---------------------------------------------------------------- Figure 3


@dataclass(frozen=True)
class Fig3System:
    """One system's panel: distribution, means/medians with 99% CIs."""

    name: str
    latencies: np.ndarray
    summary: Summary
    mean_ci99: ConfidenceInterval
    median_ci99: ConfidenceInterval
    density_x: np.ndarray
    density_y: np.ndarray


@dataclass(frozen=True)
class Fig3Significance:
    """Figure 3: Piz Dora vs Pilatus latencies with significance verdicts."""

    dora: Fig3System
    pilatus: Fig3System
    kruskal: TestOutcome
    median_cis_overlap: bool
    mean_cis_overlap: bool

    @property
    def medians_differ_significantly(self) -> bool:
        """The figure's claim: medians differ at the 95% level."""
        return self.kruskal.significant(0.05)


def fig3_significance(samples: int = 1_000_000, *, seed: int = 0) -> Fig3Significance:
    """Reproduce Figure 3: significance of latency results on two systems."""
    check_int(samples, "samples", minimum=1_000)

    def system(name: str, machine: MachineSpec, s: int) -> Fig3System:
        lat = _pingpong(machine, samples, s)
        kde = GaussianKDE.from_sample(lat, max_points=20_000)
        # Evaluate the density over the bulk of the data (the long tail
        # would compress the interesting region, as in the paper's x-range).
        lo, hi = lat.min(), float(np.quantile(lat, 0.999))
        dx = np.linspace(lo, hi, 256)
        return Fig3System(
            name=name,
            latencies=lat,
            summary=summarize(lat),
            mean_ci99=mean_ci(lat, 0.99),
            median_ci99=median_ci(lat, 0.99),
            density_x=dx,
            density_y=kde(dx),
        )

    dora = system("Piz Dora", piz_dora(), seed)
    pil = system("Pilatus", pilatus(), seed + 1)
    from ..stats.ci import intervals_overlap

    return Fig3Significance(
        dora=dora,
        pilatus=pil,
        kruskal=kruskal_wallis([dora.latencies, pil.latencies]),
        median_cis_overlap=intervals_overlap(dora.median_ci99, pil.median_ci99),
        mean_cis_overlap=intervals_overlap(dora.mean_ci99, pil.mean_ci99),
    )


# ---------------------------------------------------------------- Figure 4


def fig4_quantile_regression(
    samples: int = 1_000_000,
    taus: Sequence[float] = tuple(np.round(np.arange(0.1, 0.91, 0.1), 2)),
    *,
    seed: int = 0,
) -> QuantileComparison:
    """Reproduce Figure 4: quantile regression of Pilatus vs Piz Dora.

    Piz Dora is the base (intercept); the difference panel shows
    Pilatus − Dora per quantile with bootstrap CIs.  Expect the crossover:
    negative at low quantiles (Pilatus' lower floor), positive at high
    quantiles (Pilatus' heavier tail), while the mean difference is a
    single ≈ +0.1 µs number that hides it.
    """
    check_int(samples, "samples", minimum=1_000)
    dora = _pingpong(piz_dora(), samples, seed)
    pil = _pingpong(pilatus(), samples, seed + 1)
    return compare_quantiles(dora, pil, taus, seed=seed)


# ---------------------------------------------------------------- Figure 5


@dataclass(frozen=True)
class Fig5Point:
    """MPI_Reduce completion-time statistics at one process count."""

    p: int
    power_of_two: bool
    median_us: float
    q25_us: float
    q75_us: float


@dataclass(frozen=True)
class Fig5Reduce:
    """Figure 5: reduce completion time vs process count."""

    points: tuple[Fig5Point, ...]
    n_runs: int

    def pof2_advantage(self) -> float:
        """Median slowdown of 2^k+1 counts vs their 2^k neighbours.

        The figure's phenomenon as one number: > 1 means non-powers-of-two
        are slower.
        """
        by_p = {pt.p: pt for pt in self.points}
        ratios = [
            by_p[p + 1].median_us / by_p[p].median_us
            for p in (4, 8, 16, 32)
            if p in by_p and p + 1 in by_p
        ]
        if not ratios:
            raise ValueError("no adjacent power-of-two pairs measured")
        return float(np.median(ratios))


def fig5_reduce_scaling(
    process_counts: Sequence[int] = tuple(range(2, 65)),
    n_runs: int = 1000,
    *,
    machine: MachineSpec | None = None,
    seed: int = 0,
) -> Fig5Reduce:
    """Reproduce Figure 5: 1,000 MPI_Reduce runs per process count.

    Plots (as the paper does) the *maximum across processes* per run —
    the worst-case completion — summarized by median and quartiles.
    """
    check_int(n_runs, "n_runs", minimum=10)
    machine = machine or piz_daint()
    points = []
    for p in process_counts:
        comm = SimComm(machine, int(p), placement="packed", seed=seed)
        completion = comm.reduce(8, n_runs)
        worst = completion.max(axis=1) * 1e6
        q25, med, q75 = np.quantile(worst, [0.25, 0.5, 0.75])
        points.append(
            Fig5Point(
                p=int(p),
                power_of_two=(int(p) & (int(p) - 1)) == 0,
                median_us=float(med),
                q25_us=float(q25),
                q75_us=float(q75),
            )
        )
    return Fig5Reduce(points=tuple(points), n_runs=n_runs)


# ---------------------------------------------------------------- Figure 6


@dataclass(frozen=True)
class Fig6RankVariation:
    """Figure 6: per-process completion-time box plots for MPI_Reduce."""

    boxstats: tuple[dict, ...]
    rank_summary: RankSummary
    n_runs: int
    nprocs: int

    def slow_ranks(self, factor: float = 1.5) -> list[int]:
        """Ranks whose median exceeds factor x the cross-rank median."""
        meds = np.array([b["median"] for b in self.boxstats])
        overall = np.median(meds)
        return [i for i, m in enumerate(meds) if m > factor * overall]


def fig6_rank_variation(
    nprocs: int = 64,
    n_runs: int = 1000,
    *,
    machine: MachineSpec | None = None,
    seed: int = 0,
) -> Fig6RankVariation:
    """Reproduce Figure 6: variation across 64 processes in MPI_Reduce."""
    check_int(nprocs, "nprocs", minimum=2)
    check_int(n_runs, "n_runs", minimum=10)
    machine = machine or piz_daint()
    comm = SimComm(machine, nprocs, placement="packed", seed=seed)
    completion = comm.reduce(8, n_runs) * 1e6
    return Fig6RankVariation(
        boxstats=tuple(per_rank_boxstats(completion)),
        rank_summary=summarize_across_ranks(completion),
        n_runs=n_runs,
        nprocs=nprocs,
    )


# ---------------------------------------------------------------- Figure 7


@dataclass(frozen=True)
class Fig7Bounds:
    """Figure 7(a)/(b): measured scaling against the three bounds models."""

    ps: tuple[int, ...]
    measured_times: tuple[float, ...]
    measured_speedups: tuple[float, ...]
    ideal_times: tuple[float, ...]
    amdahl_times: tuple[float, ...]
    overhead_times: tuple[float, ...]
    ideal_speedups: tuple[float, ...]
    amdahl_speedups: tuple[float, ...]
    overhead_speedups: tuple[float, ...]
    ci_within_5pct: bool

    def model_error(self) -> dict[str, float]:
        """Median relative gap between measurement and each bound.

        The parallel-overheads bound should be tightest ("explains nearly
        all the scaling observed").
        """
        out = {}
        meas = np.array(self.measured_times)
        for name, times in (
            ("ideal", self.ideal_times),
            ("amdahl", self.amdahl_times),
            ("parallel_overheads", self.overhead_times),
        ):
            out[name] = float(np.median(np.abs(meas - np.array(times)) / meas))
        return out


def fig7ab_bounds(
    process_counts: Sequence[int] = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32),
    n_runs: int = 10,
    *,
    machine: MachineSpec | None = None,
    seed: int = 0,
) -> Fig7Bounds:
    """Reproduce Figure 7(a)/(b): Pi scaling with three bounds models.

    "Experiments ... were repeated ten times each and the 95% CI was
    within 5% of the mean" — we check and report the same property.
    """
    check_int(n_runs, "n_runs", minimum=6)  # nonparametric median CI needs n > 5
    machine = machine or piz_daint()
    workload = PiWorkload(machine, seed=seed)
    ps = tuple(int(p) for p in process_counts)
    if 1 not in ps:
        raise ValueError("include p=1: Rule 1 needs the base case measured")
    times_by_p = {p: workload.run(p, n_runs) for p in ps}
    measured = {p: float(np.mean(t)) for p, t in times_by_p.items()}
    base = measured[1]
    ci_ok = all(
        mean_ci(t, 0.95).relative_width <= 0.05 for t in times_by_p.values()
    )
    ideal = IdealScaling(base)
    amdahl = AmdahlBound(base, workload.serial_fraction)
    over = ParallelOverheadBound(
        base, workload.serial_fraction, reduction_overhead_piz_daint
    )
    return Fig7Bounds(
        ps=ps,
        measured_times=tuple(measured[p] for p in ps),
        measured_speedups=tuple(base / measured[p] for p in ps),
        ideal_times=tuple(ideal.time_bound(p) for p in ps),
        amdahl_times=tuple(amdahl.time_bound(p) for p in ps),
        overhead_times=tuple(over.time_bound(p) for p in ps),
        ideal_speedups=tuple(ideal.speedup_bound(p) for p in ps),
        amdahl_speedups=tuple(amdahl.speedup_bound(p) for p in ps),
        overhead_speedups=tuple(over.speedup_bound(p) for p in ps),
        ci_within_5pct=bool(ci_ok),
    )


@dataclass(frozen=True)
class Fig7cPlots:
    """Figure 7(c): box + violin + combined view of 10⁶ latencies."""

    latencies_us: np.ndarray
    summary: Summary
    geometric_mean: float
    median_ci95: ConfidenceInterval
    whisker_low: float
    whisker_high: float
    violin_x: np.ndarray
    violin_density: np.ndarray


def fig7c_distribution(
    samples: int = 1_000_000, *, machine: MachineSpec | None = None, seed: int = 0,
) -> Fig7cPlots:
    """Reproduce Figure 7(c): the latency distribution's box/violin data."""
    check_int(samples, "samples", minimum=1_000)
    machine = machine or piz_dora()
    lat = _pingpong(machine, samples, seed)
    s = summarize(lat)
    iqr = s.q75 - s.q25
    inside = lat[(lat >= s.q25 - 1.5 * iqr) & (lat <= s.q75 + 1.5 * iqr)]
    kde = GaussianKDE.from_sample(lat, max_points=20_000)
    lo, hi = lat.min(), float(np.quantile(lat, 0.995))
    vx = np.linspace(lo, hi, 200)
    return Fig7cPlots(
        latencies_us=lat,
        summary=s,
        geometric_mean=geometric_mean(lat),
        median_ci95=median_ci(lat, 0.95),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        violin_x=vx,
        violin_density=kde(vx),
    )
