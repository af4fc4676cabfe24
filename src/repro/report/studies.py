"""Registry entries of the ablation and extension studies.

Each study quantifies one of the paper's recommendations on the
simulated machines and reports a single table.  Every builder returns a
:class:`StudyTable` of raw cells, and all studies share one text adapter
(:func:`render_table`) and one Vega-Lite table spec
(:func:`~repro.report.vega.vl_table`), so ``repro render <name>`` and
``repro serve`` handle them like any other figure.

Builders take ``seed`` like every entry.  Each study keeps its own base
seed and adds ``seed`` to it, so seed 0 draws exactly the numbers the
committed ``benchmarks/results/<name>.txt`` show and any other seed
draws new ones.  Studies without randomness ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core import (
    AdaptiveRefiner,
    CIWidthRule,
    ClockEnsemble,
    FixedCount,
    SimTimer,
    barrier_start,
    calibrate,
    check_interval,
    estimate_offsets,
    full_factorial_2k,
    half_fraction_2k,
    measure_simulated,
    window_start,
)
from ..models import WeakScaling, fit_postal, sweep_to_arrays
from ..simsys import (
    CacheModel,
    CachedKernel,
    HPLModel,
    LogNormalNoise,
    PowerModel,
    RngFactory,
    SimClock,
    SimComm,
    VariabilityTimeline,
    dominant_period,
    fixed_work_quantum,
    piz_daint,
    piz_dora,
    pilatus,
    realistic_clock,
)
from ..stats import (
    arithmetic_mean,
    block_means,
    coefficient_of_variation,
    geometric_mean,
    harmonic_mean,
    mann_kendall,
    mean_ci,
    median_ci,
    remove_outliers,
    required_n_normal,
    rolling_cov,
    summarize_rates,
    two_way_anova,
)
from .registry import FigureEntry
from .table import render_table
from .vega import vl_table


@dataclass(frozen=True)
class StudyTable:
    """One study's result: a titled table whose cells are raw values.

    ``formats`` holds one :meth:`str.format` template per column, or a
    tuple of per-row templates for a column whose rows differ in kind
    (a quantity/value table).  A ``str`` cell is a label and prints as
    itself.  ``preface`` and ``notes`` are text lines printed before and
    after the table.
    """

    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    formats: tuple[str | tuple[str, ...], ...]
    preface: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def cells(self) -> list[list[str]]:
        """The rows as printed."""
        return [
            [
                cell if isinstance(cell, str)
                else (fmt if isinstance(fmt, str) else fmt[i]).format(cell)
                for fmt, cell in zip(self.formats, row)
            ]
            for i, row in enumerate(self.rows)
        ]


def _text(table: StudyTable) -> str:
    grid = render_table(table.columns, table.cells(), title=table.title)
    return "\n".join([*table.preface, grid, *table.notes])


def _vega(table: StudyTable) -> dict[str, Any]:
    return vl_table(table.columns, table.cells(), title=table.title)


ENTRIES: list[FigureEntry] = []


def _study(name: str, title: str, description: str) -> Callable:
    """Register the decorated builder as study *name* (at import only)."""

    def register(build: Callable[..., StudyTable]) -> Callable[..., StudyTable]:
        ENTRIES.append(FigureEntry(
            name=name, title=title, description=description, build=build,
            to_vega=_vega, to_text=_text,
        ))
        return build

    return register


# -- ablations ----------------------------------------------------------


@_study("ablation_batching", "k-batching vs single events",
        "Section 4.2.1: batch means keep the median but lose the tail.")
def _batching(*, seed: int = 0) -> StudyTable:
    """k-batching vs single-event measurement.

    Batching k events per timed interval fixes timer-resolution problems
    but destroys per-event information: the batch means are smoothed
    (CLT), so tail percentiles computed from them wildly underestimate
    the true per-event tail — the reason the paper recommends "measuring
    single events" when the timer allows it.
    """
    comm = SimComm(piz_dora(), 2, placement="one_per_node", seed=23 + seed)
    lat = comm.ping_pong(64, 200_000) * 1e6
    true_p99 = float(np.quantile(lat, 0.99))
    true_max = float(lat.max())
    rows = []
    for k in (1, 10, 100, 1000):
        data = lat if k == 1 else block_means(lat, k)
        p99 = np.quantile(data, 0.99)
        rows.append((k, data.size, np.median(data), p99, data.max(),
                     100 * (p99 / true_p99 - 1)))
    return StudyTable(
        title=(
            f"Ablation: k-batching destroys tail information "
            f"(true p99 {true_p99:.3f} us, true max {true_max:.2f} us)"
        ),
        columns=("k", "samples", "median (us)", "p99 (us)", "max (us)", "p99 error"),
        rows=tuple(rows),
        formats=("{}", "{}", "{:.3f}", "{:.3f}", "{:.3f}", "{:+.1f}%"),
    )


@_study("ablation_cache", "Warm vs cold cache",
        "Section 4.1.2: how much a warm-only number understates the cold cost.")
def _cache(*, seed: int = 0) -> StudyTable:
    """Warm vs cold cache reporting.

    "If small benchmarks are performed repeatedly, then their data may be
    in cache and thus accelerate computations."  A repeated kernel runs
    across working-set sizes as a naive loop (warm after iteration 0) and
    flushed between iterations (cold).
    """
    iterations = 100
    cache = CacheModel(capacity=32 << 20)  # a 32 MiB last-level cache
    rows = []
    for ws in (1 << 20, 8 << 20, 32 << 20, 128 << 20, 512 << 20):
        kernel = CachedKernel(cache, working_set=ws, seed=13 + seed)
        warm_mean = float(kernel.run(iterations)[1:].mean())
        cold_mean = float(kernel.run(iterations, flush_between=True).mean())
        rows.append((ws >> 20, warm_mean * 1e3, cold_mean * 1e3,
                     cold_mean / warm_mean, kernel.warm_cold_ratio()))
    return StudyTable(
        title=f"Ablation: warm vs cold cache (32 MiB cache, {iterations} iterations)",
        columns=("working set", "warm-loop mean (ms)", "flushed mean (ms)",
                 "measured cold/warm", "model cold/warm"),
        rows=tuple(rows),
        formats=("{} MiB", "{:.3f}", "{:.3f}", "{:.2f}x", "{:.2f}x"),
    )


@_study("ablation_ci", "CI coverage, normality assumed vs checked",
        "Rules 5-6: Monte-Carlo coverage of t- and rank intervals for the median.")
def _ci(*, seed: int = 0) -> StudyTable:
    """CI coverage when normality is assumed vs checked.

    On normal, log-normal and multimodal latency populations, how often
    does the nominal 95% interval contain the true median?  The
    t-interval of skewed data under-covers badly (the Rule 6 failure
    mode), while the nonparametric rank interval holds its level on
    every shape.
    """
    n, trials = 40, 400
    populations = {
        "normal": (lambda rng, n: rng.normal(10.0, 2.0, n), 10.0),
        "lognormal": (lambda rng, n: rng.lognormal(1.0, 0.9, n), float(np.exp(1.0))),
        "multimodal": (
            lambda rng, n: np.where(
                rng.random(n) < 0.8, rng.normal(2.0, 0.1, n), rng.normal(6.0, 0.3, n)
            ),
            2.0249,  # true median of the mixture (80% mass in the low mode)
        ),
    }
    rng = np.random.default_rng(99 + seed)
    rows = []
    for name, (sampler, true_median) in populations.items():
        hits_t, hits_rank = 0, 0
        for _ in range(trials):
            data = sampler(rng, n)
            # Misuse: a t-interval centered on the mean, used as if it
            # covered the typical (median) value.
            if mean_ci(data, 0.95).contains(true_median):
                hits_t += 1
            if median_ci(data, 0.95).contains(true_median):
                hits_rank += 1
        rows.append((name, hits_t / trials, hits_rank / trials))
    return StudyTable(
        title=f"Ablation: 95% CI coverage of the true median ({trials} trials, n={n})",
        columns=("population", "t-interval coverage", "rank-interval coverage"),
        rows=tuple(rows),
        formats=("{}", "{:.3f}", "{:.3f}"),
    )


@_study("ablation_interaction", "System x message-size interaction",
        "Section 3.2.1: two-way ANOVA of Dora vs Pilatus over message sizes.")
def _interaction(*, seed: int = 0) -> StudyTable:
    """Testing "helps on X but not on Y" soundly.

    Factor A is the machine (Piz Dora vs Pilatus), factor B the message
    size.  At small messages the systems nearly tie; at large messages
    Pilatus is ~60% slower — a textbook interaction that the two-way
    ANOVA detects and a grand-mean comparison per system hides.
    """
    sizes, n_runs = (64, 4096, 262144), 60
    machines = (piz_dora(), pilatus())
    data = np.empty((len(machines), len(sizes), n_runs))
    for i, machine in enumerate(machines):
        comm = SimComm(machine, 2, placement="one_per_node", seed=51 + i + seed)
        for j, size in enumerate(sizes):
            data[i, j] = comm.ping_pong(size, n_runs) * 1e6
    anova = two_way_anova(data)
    rows = []
    for j, size in enumerate(sizes):
        dora, pil = np.median(data[0, j]), np.median(data[1, j])
        rows.append((size, dora, pil, pil - dora, 100 * (pil / dora - 1)))
    grand = ", ".join(
        f"{name} {data[i].mean():.2f} us" for i, name in enumerate(("Dora", "Pilatus"))
    )
    return StudyTable(
        title="Ablation: system x message-size interaction",
        columns=("message size (B)", "Dora median (us)", "Pilatus median (us)",
                 "gap (us)", "gap (%)"),
        rows=tuple(rows),
        formats=("{}", "{:.2f}", "{:.2f}", "{:+.2f}", "{:+.1f}%"),
        notes=(
            "",
            anova.summary(),
            "",
            f"significant effects at alpha=0.01: {anova.significant_effects(0.01)}",
            f"grand means per system: {grand}"
            "  <- a single-number comparison hides the regime change",
        ),
    )


@_study("ablation_means", "Summarizing rates with the wrong mean",
        "Rules 3-4: arithmetic and geometric means of HPL rates vs the right one.")
def _means(*, seed: int = 0) -> StudyTable:
    """How much do the wrong means mislead?

    Across simulated HPL campaigns with growing run-to-run noise, the
    arithmetic mean of rates and the geometric mean of relative rates
    drift from the correct cost-first aggregate — why the paper
    legislates the choice of mean.
    """
    rows = []
    for sigma in (0.1, 0.3, 0.6, 1.0):
        model = HPLModel(piz_daint(64), spread_sigma=sigma, seed=17 + seed)
        times = model.run(200)
        rates = model.rates(times)
        correct = model.flops / times.mean()
        arith = arithmetic_mean(rates)
        geo = geometric_mean(rates / model.machine.peak_flops) * model.machine.peak_flops
        rows.append((sigma, correct / 1e12, harmonic_mean(rates) / 1e12,
                     arith / 1e12, 100 * (arith / correct - 1),
                     geo / 1e12, 100 * (geo / correct - 1)))
    return StudyTable(
        title="Ablation: summarizing rates with the wrong mean (200 HPL runs each)",
        columns=("noise sigma", "correct (Tflop/s)", "harmonic", "arith of rates",
                 "arith error", "geometric", "geo error"),
        rows=tuple(rows),
        formats=("{:.6g}", "{:.2f}", "{:.2f}", "{:.2f}", "{:+.1f}%", "{:.2f}", "{:+.1f}%"),
    )


@_study("ablation_outliers", "Outlier removal vs robust statistics",
        "Section 3.1.3: Tukey removal moves the mean; the median barely moves.")
def _outliers(*, seed: int = 0) -> StudyTable:
    """Outlier removal vs robust statistics.

    On latency contaminated by rare congestion spikes, compare the raw
    mean, the mean after Tukey removal at several constants, and the
    median.  The median barely moves; the mean needs removal, whose
    constant then becomes a reporting obligation.
    """
    comm = SimComm(pilatus(), 2, placement="one_per_node", seed=29 + seed)
    lat = comm.ping_pong(64, 100_000) * 1e6
    rows = [("(raw)", "-", lat.mean(), np.median(lat), 0, "0%")]
    for c in (1.5, 3.0, 6.0):
        rep = remove_outliers(lat, c)
        rows.append((f"Tukey c={c:g}", (rep.low_fence, rep.high_fence),
                     rep.kept.mean(), np.median(rep.kept), rep.n_removed,
                     100 * rep.fraction_removed))
    return StudyTable(
        title="Ablation: outlier treatment on spiky Pilatus latency",
        columns=("treatment", "fences (us)", "mean (us)", "median (us)", "removed",
                 "fraction"),
        rows=tuple(rows),
        formats=("{}", "[{0[0]:.2f}, {0[1]:.2f}]", "{:.4f}", "{:.4f}", "{}", "{:.2f}%"),
    )


@_study("ablation_refinement", "Adaptive vs uniform level selection",
        "Section 4.2: SKaMPI-style refinement of a latency-vs-size curve.")
def _refinement(*, seed: int = 0) -> StudyTable:
    """Adaptive level refinement vs uniform levels.

    With a fixed budget of 8 message sizes over 2^0..2^20, levels chosen
    adaptively (where the uncertainty is highest) pile onto the knee
    past n_1/2 and cut the worst-case interpolation error that uniform
    log spacing gets wrong.
    """
    budget, lo, hi, samples = 8, 0, 20, 200
    comm = SimComm(piz_dora(), 2, placement="one_per_node", seed=9 + seed)

    def measure(log_size: int) -> tuple[float, float]:
        ci = median_ci(comm.ping_pong(int(2**log_size), samples) * 1e6, 0.95)
        return ci.estimate, ci.width

    truth = {l2: measure(l2)[0] for l2 in range(lo, hi + 1)}
    uniform = sorted({int(round(x)) for x in np.linspace(lo, hi, budget)})
    refiner = AdaptiveRefiner(tolerance=0.0, min_gap=0.9, integer_levels=True)
    adaptive: list[int] = []

    def measure_level(l2: int) -> None:
        est, width = measure(l2)
        adaptive.append(l2)
        refiner.observe(l2, est, width)

    for l2 in (lo, (lo + hi) // 2, hi):
        measure_level(l2)
    while len(adaptive) < budget:
        nxt = refiner.propose()
        if nxt is None:
            break
        measure_level(int(nxt))

    all_x = np.arange(lo, hi + 1, dtype=float)
    actual = np.array([truth[int(x)] for x in all_x])
    rows = []
    for name, levels in (("uniform (log2)", uniform), ("adaptive", sorted(adaptive))):
        xs = np.array(sorted(set(levels)), dtype=float)
        pred = np.interp(all_x, xs, np.array([truth[int(x)] for x in xs]))
        err = np.abs(pred - actual) / actual
        rows.append((name, str([f"2^{lv}" for lv in sorted(set(levels))]),
                     100 * float(np.max(err)), 100 * float(np.median(err))))
    return StudyTable(
        title=f"Ablation: level selection, {budget} sizes over 2^0..2^20 (latency curve)",
        columns=("strategy", "measured sizes", "max interp error", "median interp error"),
        rows=tuple(rows),
        formats=("{}", "{}", "{:.1f}%", "{:.2f}%"),
    )


@_study("ablation_stopping", "How many measurements are enough",
        "Section 4.2.2: fixed n=30, sequential CI-width rules and analytic n.")
def _stopping(*, seed: int = 0) -> StudyTable:
    """Measurement-count strategies on simulated ping-pong latency.

    The textbook fixed n=30, the paper's sequential CI-width rule at
    several precision targets, and the analytic required-n formula
    (which assumes normality and so misjudges skewed data), each with
    the CI width it achieved and the measurements it cost.
    """
    comm = SimComm(piz_dora(), 2, placement="one_per_node", seed=37 + seed)

    def sampler(n: int) -> np.ndarray:
        return comm.ping_pong(64, n) * 1e6

    ms = measure_simulated(sampler, name="fixed30", stopping=FixedCount(30))
    rows = [("fixed n=30", ms.n, 100 * median_ci(ms.values, 0.95).relative_width)]
    for target in (0.05, 0.02, 0.005):
        rule = CIWidthRule(relative_error=target, confidence=0.95, statistic="median")
        ms = measure_simulated(sampler, name=f"ci{target}", stopping=rule, chunk=16)
        rows.append((f"sequential CI <= {100 * target:g}%", ms.n,
                     100 * median_ci(ms.values, 0.95).relative_width))
    pilot = sampler(50)
    n_req = required_n_normal(
        float(np.mean(pilot)), float(np.std(pilot, ddof=1)),
        relative_error=0.005, confidence=0.95,
    )
    rows.append(("analytic required-n (target 0.5%, normal assumption)", n_req,
                 100 * median_ci(sampler(n_req), 0.95).relative_width))
    return StudyTable(
        title="Ablation: measurement-count strategies on Piz Dora ping-pong",
        columns=("strategy", "measurements", "achieved 95% median-CI width"),
        rows=tuple(rows),
        formats=("{}", "{}", "{:.2f}%"),
    )


@_study("ablation_sync", "Window vs barrier vs no synchronization",
        "Rule 10: true start-time skew of P processes under each scheme.")
def _sync(*, seed: int = 0) -> StudyTable:
    """Window synchronization vs barrier vs nothing.

    The true start-time skew of P simulated processes under the paper's
    window scheme (clock sync + future start time), the common barrier
    practice, and no synchronization (uncorrected clock offsets).
    Expected: window << barrier << none.
    """
    rows = []
    for n in (4, 16, 64):
        rngs = RngFactory(7 + seed)
        clocks = [SimClock()] + [realistic_clock(rngs("clk", i)) for i in range(1, n)]
        ens = ClockEnsemble(
            clocks,
            base_latency=1.5e-6,
            latency_noise=LogNormalNoise(0.15e-6, 0.6),
            rng=rngs("net"),
        )
        offsets = estimate_offsets(ens, n_pings=30)
        window = np.ptp(window_start(ens, offsets, window=0.02))
        barrier = np.ptp(barrier_start(ens))
        # No synchronization: every process starts when its local clock
        # shows the agreed time, but offsets were never estimated.
        none = np.ptp(window_start(ens, np.zeros(n), window=0.02))
        rows.append((n, window * 1e6, barrier * 1e6, none * 1e6,
                     barrier / window, none / window))
    return StudyTable(
        title="Ablation: true start-time skew by synchronization scheme",
        columns=("P", "window (us)", "barrier (us)", "none (us)", "barrier/window",
                 "none/window"),
        rows=tuple(rows),
        formats=("{}", "{:.3f}", "{:.3f}", "{:.1f}", "{:.0f}x", "{:.0f}x"),
    )


@_study("ablation_timer", "Timer quality vs smallest sound interval",
        "Section 4.2.1: simulated clocks from rdtsc- to jiffies-class.")
def _timer(*, seed: int = 0) -> StudyTable:
    """Timer quality and the smallest soundly measurable interval.

    Calibrates simulated clocks of varying quality: resolution,
    overhead, the smallest interval meeting the paper's two criteria
    (<5% overhead, >=10x resolution), and the batch factor k a 1 us
    event needs on each.  The clocks are deterministic, so *seed* cannot
    change the table; this host's real timers are ``repro calibrate``'s
    job, since their numbers differ on every host.
    """
    clocks = (
        ("sim: rdtsc-class", SimClock(granularity=1e-9, read_overhead=2e-8)),
        ("sim: clock_gettime-class", SimClock(granularity=1e-8, read_overhead=3e-8)),
        ("sim: gettimeofday-class", SimClock(granularity=1e-6, read_overhead=5e-8)),
        # Legacy tick-based clock: 1 ms granularity, 1 us syscall cost (the
        # read overhead must be large enough that calibration observes ticks).
        ("sim: jiffies-class", SimClock(granularity=1e-3, read_overhead=1e-6)),
    )
    rows = []
    for name, clock in clocks:
        cal = calibrate(SimTimer(clock=clock), samples=4000)
        chk = check_interval(cal, 1e-6)  # a 1 us event: small-message latency
        rows.append((name, cal.resolution, cal.overhead,
                     cal.smallest_measurable_interval(), "yes" if chk.ok else "no",
                     chk.recommended_batch()))
    return StudyTable(
        title="Ablation: timer quality vs smallest soundly measurable interval",
        columns=("timer", "resolution (s)", "overhead (s)", "smallest sound (s)",
                 "1us single-event ok?", "k needed"),
        rows=tuple(rows),
        formats=("{}", "{:.2e}", "{:.2e}", "{:.2e}", "{}", "{}"),
    )


# -- extensions ---------------------------------------------------------


@_study("extension_energy", "Energy-to-solution with Rule 3 summaries",
        "Section 4.2: energy is a cost, flop/J a rate, as for time and flop/s.")
def _energy(*, seed: int = 0) -> StudyTable:
    """Energy as a second measured metric.

    HPL's energy-to-solution runs through the Rule 3 pipeline: energy (J)
    is a cost (arithmetic mean), flop/J a rate (harmonic mean or
    cost-first aggregation), and the arithmetic mean of the efficiency
    rates overstates reality exactly as it does for flop/s.
    """
    machine = piz_daint(64)
    hpl = HPLModel(machine, seed=71 + seed)
    power = PowerModel(machine, seed=71 + seed)
    times = hpl.run(50)
    energy = power.measure_energy(times, utilization=0.9)
    rates = hpl.flops / energy  # flop/J per run
    mean_energy = arithmetic_mean(energy)
    ci = mean_ci(energy, 0.95)
    return StudyTable(
        title="Extension: HPL energy-to-solution with Rule 3 summaries",
        columns=("quantity", "value"),
        rows=(
            ("runs", times.size),
            ("mean energy-to-solution (MJ)", mean_energy / 1e6),
            ("95% CI of mean energy (MJ)", (ci.low / 1e6, ci.high / 1e6)),
            ("efficiency, cost-first (Mflop/J)", hpl.flops / mean_energy / 1e6),
            ("efficiency, harmonic mean (Mflop/J)", harmonic_mean(rates) / 1e6),
            ("efficiency, arithmetic mean (Mflop/J) [WRONG]",
             arithmetic_mean(rates) / 1e6),
        ),
        formats=("{}", ("{}", "{:.2f}", "[{0[0]:.2f}, {0[1]:.2f}]",
                        "{:.1f}", "{:.1f}", "{:.1f}")),
    )


@_study("extension_noise", "FWQ noise characterization",
        "Section 1: noise fraction, periodicity and collective slowdown at scale.")
def _noise(*, seed: int = 0) -> StudyTable:
    """Characterizing system noise.

    The fixed-work-quantum benchmark on the simulated machines: the
    noise fraction, the detected periodicity, and the noise-induced
    slowdown bound of synchronizing collectives at growing process
    counts (tiny serial noise, large parallel cost).
    """
    iterations, quantum = 8192, 1e-3
    rows = []
    for machine, ticks in ((piz_daint(), 4.4e-3), (piz_dora(), None)):
        fwq = fixed_work_quantum(
            machine,
            quantum=quantum,
            iterations=iterations,
            tick_period=ticks,
            tick_duration=60e-6,
            seed=91 + seed,
        )
        period = dominant_period(fwq)
        rows.append((
            machine.name + (" (+4.4ms tick train)" if ticks else ""),
            100 * fwq.noise_fraction,
            period * 1e3 if period else "aperiodic",
            *(100 * fwq.slowdown_bound_for_collectives(p) for p in (64, 4096, 262144)),
        ))
    return StudyTable(
        title=(
            f"Extension: FWQ noise characterization "
            f"({iterations} x {quantum * 1e3:.0f} ms quanta)"
        ),
        columns=("machine", "noise fraction", "dominant period", "slowdown P=64",
                 "P=4096", "P=262144"),
        rows=tuple(rows),
        formats=("{}", "{:.2f}%", "{:.2f} ms", "{:.1f}%", "{:.1f}%", "{:.1f}%"),
    )


@_study("extension_screening", "Two-level factor screening",
        "Section 4: full 2^4 design vs its half fraction on MPI_Reduce.")
def _screening(*, seed: int = 0) -> StudyTable:
    """Factor screening with two-level designs.

    Screens four candidate influences on MPI_Reduce — process count,
    message size, placement, and the RNG seed (a deliberate non-factor)
    — with the full 2^4 design and its half fraction.  Both rank the
    factors identically; the half fraction needs 8 runs instead of 16
    and pays with the documented alias table.
    """
    names = ("p", "size", "placement", "seed")
    levels = {
        "p": (8, 48),
        "size": (8, 4096),
        "placement": ("packed", "scattered"),
        "seed": (1, 2),
    }

    def measure(point) -> float:
        # Two seeds per study seed, disjoint from every other study seed's.
        comm = SimComm(piz_daint(), point["p"], placement=point["placement"],
                       seed=point["seed"] + 2 * seed)
        return float(np.median(comm.reduce(point["size"], 60).max(axis=1)) * 1e6)

    full, half = full_factorial_2k(names), half_fraction_2k(names)
    effects = [
        {e.name: e.effect
         for e in design.estimate_effects([measure(pt) for pt in design.settings(levels)])}
        for design in (full, half)
    ]
    return StudyTable(
        title=(
            f"Extension: screening reduce-performance factors "
            f"({full.n_runs} vs {half.n_runs} runs)"
        ),
        columns=("factor", "effect, full (us)", "effect, half (us)", "half aliased with"),
        rows=tuple(
            (name, effects[0][name], effects[1][name], half.aliases.get(name, "-"))
            for name in names
        ),
        formats=("{}", "{:+.2f}", "{:+.2f}", "{}"),
    )


@_study("extension_variability", "Performance consistency over time",
        "CoV references [34, 52]: rolling CoV and Mann-Kendall over two weeks.")
def _variability(*, seed: int = 0) -> StudyTable:
    """Performance consistency over time.

    A fixed benchmark over two weeks of simulated operation (diurnal
    load, degradation incidents, per-run noise), summarized by overall
    and rolling CoV, and the Mann–Kendall test for systematic drift.
    The rolling CoV localizes the incidents the overall number smears.
    """
    days, runs_per_day, window = 14, 24, 24  # a one-day rolling window
    tl = VariabilityTimeline(
        piz_daint(), incident_rate=0.3, incident_slowdown=0.4, seed=101 + seed
    )
    hours, rt = tl.sample(days, runs_per_day)
    rc = rolling_cov(rt, window)
    mk = mann_kendall(rt)
    return StudyTable(
        title=f"Extension: {days}-day variability trace, {window}-run rolling window",
        columns=("quantity", "value"),
        rows=(
            ("runs", rt.size),
            ("overall CoV", coefficient_of_variation(rt)),
            ("quiet-floor CoV (model)", tl.expected_quiet_cov()),
            ("rolling CoV min", rc.min()),
            ("rolling CoV max", rc.max()),
            ("worst window starts (day)", float(hours[int(np.argmax(rc))] / 24.0)),
            ("Mann-Kendall drift p-value", mk.p_value),
            ("systematic drift detected", "yes" if mk.significant() else "no"),
        ),
        formats=("{}", ("{}", "{:.4f}", "{:.4f}", "{:.4f}", "{:.4f}", "{:.1f}",
                        "{:.3f}", "{}")),
    )


@_study("extension_weak_scaling", "Declared weak-scaling study",
        "Section 4.2: a stencil step (compute + allreduce) scaled weakly.")
def _weak_scaling(*, seed: int = 0) -> StudyTable:
    """A declared weak-scaling study.

    "Papers should always indicate if experiments are using strong
    scaling or weak scaling."  A weak-scaled stencil-like workload
    (fixed per-process work plus one allreduce per step) runs across
    node counts, with the scaling function declared via
    :class:`repro.models.WeakScaling`: flat compute plus a
    logarithmically growing communication term.
    """
    work_s, steps, n_runs = 2e-3, 4, 60  # compute per process per step
    decl = WeakScaling(base_size=1_000_000, growth_name="linear", ndims=2,
                       scaled_dims=(0,))
    rows = []
    base_med = None
    for p in (1, 2, 4, 8, 16, 32, 64):
        comm = SimComm(piz_daint(), p, placement="packed", seed=201 + seed)
        total = np.full(n_runs, steps * work_s)
        for _ in range(steps):
            total += comm.allreduce(4 << 20, n_runs).max(axis=1)  # 4 MiB halo
        med = float(np.median(total))
        if base_med is None:
            base_med = med
        rows.append((p, decl.size_for(p), med * 1e3, med / base_med))
    return StudyTable(
        title="Extension: weak scaling of a stencil step (compute + allreduce)",
        columns=("P", "global size", "median time (ms)", "vs P=1"),
        rows=tuple(rows),
        formats=("{}", "{}", "{:.3f}", "{:.3f}"),
        preface=(f"declaration: {decl.describe()}", ""),
    )


@_study("means_example", "Section 3.1.1 worked example",
        "Section 3.1.1: three 100-Gflop runs of (10, 100, 40) s, summarized.")
def _means_example(*, seed: int = 0) -> StudyTable:
    """How (not) to summarize rates, on the paper's own numbers.

    Three 100-Gflop runs take (10, 100, 40) s: the arithmetic mean of
    times gives 2 Gflop/s, the arithmetic mean of the rates a wrong 4.5,
    the harmonic mean the right 2, and the geometric mean of the rates
    relative to a 10 Gflop/s peak a meaningless 0.29.  The example has
    no randomness, so *seed* cannot change it.
    """
    work, peak = 100e9, 10e9  # flop per run, flop/s
    times = np.asarray((10.0, 100.0, 40.0))
    rates = work / times
    return StudyTable(
        title="Section 3.1.1 worked example (paper: 50 s, 2, 4.5, 2, 0.29)",
        columns=("summary", "value"),
        rows=(
            ("mean time (s)", arithmetic_mean(times)),
            ("rate from mean time (Gflop/s)", work / arithmetic_mean(times) / 1e9),
            ("arithmetic mean of rates (Gflop/s) [WRONG]", arithmetic_mean(rates) / 1e9),
            ("harmonic mean of rates (Gflop/s)", harmonic_mean(rates) / 1e9),
            ("summarize_rates from costs (Gflop/s)",
             summarize_rates(numerators=np.full(3, work), denominators=times) / 1e9),
            ("geometric mean of relative rates [MEANINGLESS]",
             geometric_mean(rates / peak)),
        ),
        formats=("{}", "{:.4g}"),
    )


@_study("netmodel_fit", "Postal-model fit of both interconnects",
        "Sections 4.1.2 / 5.1: quantile-regression alpha-beta fit per machine.")
def _netmodel_fit(*, seed: int = 0) -> StudyTable:
    """Microbenchmark-parametrized peaks.

    Fits the postal model t(m) = α + m/β by quantile regression over a
    message-size sweep on both simulated interconnects, then checks the
    back-of-the-envelope prediction for a 1 MiB transfer.  The fitted β
    must recover each machine's configured link bandwidth.
    """
    sizes, samples = (0, 256, 4096, 65536, 1 << 19, 1 << 21), 200
    rows = []
    for machine, base in ((piz_dora(), 61), (pilatus(), 62)):
        comm = SimComm(machine, 2, placement="one_per_node", seed=base + seed)
        m, t = sweep_to_arrays({size: comm.ping_pong(size, samples) for size in sizes})
        model = fit_postal(m, t, tau=0.5)
        predicted = float(model.predict([1 << 20])[0])
        measured = float(np.median(comm.ping_pong(1 << 20, samples)))
        rows.append((machine.name, model.alpha * 1e6, model.beta / 1e9,
                     machine.network.bandwidth / 1e9,
                     model.half_bandwidth_size / 1024,
                     100 * abs(predicted / measured - 1)))
    return StudyTable(
        title="Extension: postal-model fit (quantile regression, tau=0.5)",
        columns=("machine", "alpha fit (us)", "beta fit (GB/s)", "beta configured",
                 "n_1/2 (KiB)", "1 MiB prediction error"),
        rows=tuple(rows),
        formats=("{}", "{:.2f}", "{:.2f}", "{:.2f}", "{:.1f}", "{:.1f}%"),
    )
