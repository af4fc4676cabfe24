"""Registry entries of the operations figures.

Collective scaling on the million-rank simulator, latency under chaos
fault profiles, and the trajectory of a recorded campaign, the one
entry that builds from campaign data instead of fresh simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ValidationError
from .paper import _text
from .registry import FigureEntry
from .vega import vl_box_chart, vl_line_chart


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


ENTRIES: tuple[FigureEntry, ...] = (
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
