"""Effect-size confidence intervals for performance changes (Kalibera–Jones).

Implements the statistical core of "Quantifying Performance Changes with
Effect Size Confidence Intervals" (Kalibera & Jones; see PAPERS.md) on
top of the run/iteration-structured samples of
:class:`~repro.compare.record.BenchRecord`:

* **multi-level random-effects variance** — benchmark data is gathered
  at nested levels (iterations inside processes inside runs); the
  :func:`variance_components` decomposition attributes variance to each
  level (the T² mean-squares and unbiased S² components of the paper)
  and yields the variance of the grand mean together with its degrees of
  freedom (driven by the *top* level count, the only level that provides
  independent replication);
* **the effect-size CI on a ratio of means** — :func:`ratio_ci` builds
  Fieller's asymptotic confidence interval for ``mean(a)/mean(b)`` from
  the two mean-variance estimates, which is the paper's recommended
  quantification of a performance change (a speedup/slowdown *with
  uncertainty*, not a bare point ratio);
* **a hierarchical-bootstrap cross-check** — :func:`ratio_ci_bootstrap`
  resamples the top-level (run) means with
  :func:`repro.stats.bootstrap.bootstrap_distribution` for each side and
  takes the percentile interval of the replicate ratios, giving an
  assumption-light second opinion on the asymptotic interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _sps

from .._validation import check_int, check_prob
from ..errors import InsufficientDataError, ValidationError
from ..stats.bootstrap import bootstrap_distribution
from ..stats.ci import ConfidenceInterval

__all__ = [
    "VarianceComponents",
    "variance_components",
    "mean_and_variance",
    "ratio_ci",
    "ratio_ci_bootstrap",
]


def _as_runs_matrix(data) -> list[np.ndarray]:
    """Normalize nested benchmark data to a list of per-run 1-D arrays.

    Accepts a 2-D array, a sequence of 1-D sequences (possibly ragged),
    or — for deeper hierarchies — any nested structure whose top level
    indexes runs; deeper levels are flattened into the run (the top
    level is the one that carries the grand mean's degrees of freedom).
    """
    if isinstance(data, np.ndarray) and data.ndim >= 2:
        return [np.asarray(run, dtype=np.float64).ravel() for run in data]
    runs = []
    for i, run in enumerate(data):
        arr = np.asarray(run, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValidationError(f"run {i} has no samples")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"run {i} contains non-finite samples")
        runs.append(arr)
    if not runs:
        raise ValidationError("need at least one run of samples")
    return runs


@dataclass(frozen=True)
class VarianceComponents:
    """Multi-level variance decomposition of one benchmark's samples.

    ``t2`` are the per-level mean-squares (the paper's biased T²
    statistics) and ``s2`` the unbiased variance components (S²), both
    ordered top level first (runs, then processes, then iterations...).
    ``counts`` gives the (balanced) repetition count at each level.
    ``mean_variance`` is the estimated variance of :attr:`grand_mean` —
    the paper's central result: only the top level's spread matters,
    ``T²_top / r_top`` — with ``df = r_top − 1`` degrees of freedom.
    """

    grand_mean: float
    t2: tuple[float, ...]
    s2: tuple[float, ...]
    counts: tuple[int, ...]
    mean_variance: float
    df: int

    @property
    def levels(self) -> int:
        """Number of nesting levels in the decomposition."""
        return len(self.t2)

    def describe(self) -> str:
        """One-line human rendering of the decomposition."""
        parts = ", ".join(
            f"level{i}: r={r} T2={t:.4g} S2={s:.4g}"
            for i, (r, t, s) in enumerate(zip(self.counts, self.t2, self.s2))
        )
        return (
            f"mean={self.grand_mean:.6g} var(mean)={self.mean_variance:.4g} "
            f"df={self.df} [{parts}]"
        )


def _balanced_components(a: np.ndarray) -> VarianceComponents:
    """T²/S² decomposition of a balanced n-level array (axis 0 = top)."""
    levels = a.ndim
    grand = float(a.mean())
    t2: list[float] = []
    counts: list[int] = []
    # M_d = per-unit means at depth d (shape a.shape[:d]); M_0 is the grand
    # mean.  T² at depth d is the pooled ddof-1 spread of the depth-d unit
    # means around their depth-(d-1) parents.
    means = [a.mean(axis=tuple(range(d, levels))) if d < levels else a
             for d in range(levels + 1)]
    for d in range(1, levels + 1):
        r_d = a.shape[d - 1]
        counts.append(int(r_d))
        if r_d < 2:
            t2.append(0.0)
            continue
        parents = np.expand_dims(means[d - 1], axis=-1)
        sq = (means[d] - parents) ** 2
        n_parents = int(np.prod(a.shape[: d - 1], dtype=np.int64)) if d > 1 else 1
        t2.append(float(sq.sum() / (n_parents * (r_d - 1))))
    # Unbiased components: the lowest level's T² is already unbiased; each
    # higher level subtracts the leakage of the level below it.
    s2 = list(t2)
    for d in range(levels - 2, -1, -1):
        s2[d] = t2[d] - t2[d + 1] / counts[d + 1]
    r_top = counts[0]
    if r_top >= 2:
        mean_var = t2[0] / r_top
        df = r_top - 1
    else:
        # Single run: fall back to iid variance of everything below the
        # top level.  Honest only when there are no run effects — callers
        # that need a defensible CI should require >= 2 runs.
        flat = a.ravel()
        if flat.size < 2:
            raise InsufficientDataError(2, flat.size, "variance of the mean")
        mean_var = float(flat.var(ddof=1)) / flat.size
        df = flat.size - 1
    return VarianceComponents(
        grand_mean=grand,
        t2=tuple(t2),
        s2=tuple(s2),
        counts=tuple(counts),
        mean_variance=float(mean_var),
        df=int(df),
    )


def variance_components(data) -> VarianceComponents:
    """Kalibera–Jones variance decomposition of nested benchmark samples.

    *data* is either a balanced n-dimensional array whose first axis
    indexes the top level (runs), or a (possibly ragged) sequence of
    per-run sample sequences.  Ragged input is treated as two-level:
    between-run and pooled within-run.
    """
    if isinstance(data, np.ndarray) and data.ndim >= 2:
        return _balanced_components(np.asarray(data, dtype=np.float64))
    runs = _as_runs_matrix(data)
    sizes = {run.size for run in runs}
    if len(sizes) == 1:
        return _balanced_components(np.stack(runs))
    # Ragged runs: two-level decomposition with runs weighted equally.
    run_means = np.array([run.mean() for run in runs])
    grand = float(run_means.mean())
    r = len(runs)
    t2_top = float(run_means.var(ddof=1)) if r >= 2 else 0.0
    within_ss = sum(float(((run - run.mean()) ** 2).sum()) for run in runs)
    within_df = sum(run.size - 1 for run in runs)
    t2_within = within_ss / within_df if within_df > 0 else 0.0
    mean_iters = float(np.mean([run.size for run in runs]))
    if r >= 2:
        mean_var, df = t2_top / r, r - 1
    else:
        flat = np.concatenate(runs)
        if flat.size < 2:
            raise InsufficientDataError(2, flat.size, "variance of the mean")
        mean_var, df = float(flat.var(ddof=1)) / flat.size, flat.size - 1
    return VarianceComponents(
        grand_mean=grand,
        t2=(t2_top, t2_within),
        s2=(t2_top - t2_within / mean_iters, t2_within),
        counts=(r, int(round(mean_iters))),
        mean_variance=mean_var,
        df=int(df),
    )


def mean_and_variance(data) -> tuple[float, float, int]:
    """``(grand_mean, var_of_mean, df)`` for nested benchmark samples."""
    vc = variance_components(data)
    return vc.grand_mean, vc.mean_variance, vc.df


def _welch_df(v1: float, df1: int, v2: float, df2: int) -> float:
    """Welch–Satterthwaite degrees of freedom for a variance sum."""
    if v1 + v2 <= 0.0:
        return float(df1 + df2)
    denom = (v1**2 / df1 if df1 > 0 else 0.0) + (v2**2 / df2 if df2 > 0 else 0.0)
    if denom <= 0.0:
        return float(df1 + df2)
    return (v1 + v2) ** 2 / denom


def ratio_ci(
    numerator,
    denominator,
    *,
    confidence: float = 0.95,
    min_runs: int = 2,
) -> ConfidenceInterval:
    """Fieller's effect-size CI for ``mean(numerator)/mean(denominator)``.

    Both inputs are run-structured samples (see
    :func:`variance_components`).  The interval is the set of ratios
    *r* compatible with ``(m1 − r·m2)² ≤ t²·(v1 + r²·v2)`` where
    ``m, v`` are the grand means and their variance estimates — the
    asymptotic construction Kalibera & Jones recommend for quantifying a
    performance change.  Degrees of freedom combine both sides by
    Welch–Satterthwaite.

    Requires at least *min_runs* runs on each side (independent top-level
    replication is what the variance estimate is built from).  When the
    denominator mean is not significantly nonzero at this confidence the
    interval is unbounded and ``(−inf, inf)`` is returned — an honest
    "cannot resolve the ratio", not an error.
    """
    check_prob(confidence, "confidence")
    check_int(min_runs, "min_runs", minimum=1)
    runs_a = _as_runs_matrix(numerator)
    runs_b = _as_runs_matrix(denominator)
    if len(runs_a) < min_runs:
        raise InsufficientDataError(min_runs, len(runs_a), "ratio CI numerator runs")
    if len(runs_b) < min_runs:
        raise InsufficientDataError(min_runs, len(runs_b), "ratio CI denominator runs")
    m1, v1, df1 = mean_and_variance(runs_a)
    m2, v2, df2 = mean_and_variance(runs_b)
    if m2 == 0.0:
        raise ValidationError("ratio undefined: denominator mean is zero")
    estimate = m1 / m2
    n = sum(r.size for r in runs_a) + sum(r.size for r in runs_b)
    if v1 == 0.0 and v2 == 0.0:
        # Degenerate: no measured variability on either side (e.g. two
        # deterministic single-value records) — the ratio is a point.
        return ConfidenceInterval(
            estimate=estimate, low=estimate, high=estimate,
            confidence=confidence, statistic="ratio-of-means", n=n,
        )
    df = _welch_df(v1, df1, v2, df2)
    tcrit = float(_sps.t.ppf(0.5 + confidence / 2.0, df=max(df, 1.0)))
    t2 = tcrit * tcrit
    a_coef = m2 * m2 - t2 * v2
    b_coef = m1 * m2
    c_coef = m1 * m1 - t2 * v1
    disc = b_coef * b_coef - a_coef * c_coef
    if a_coef <= 0.0 or disc < 0.0:
        # Denominator indistinguishable from zero: every ratio is possible.
        low, high = -math.inf, math.inf
    else:
        root = math.sqrt(disc)
        low = (b_coef - root) / a_coef
        high = (b_coef + root) / a_coef
    return ConfidenceInterval(
        estimate=estimate,
        low=float(low),
        high=float(high),
        confidence=confidence,
        statistic="ratio-of-means",
        n=n,
    )


def _row_mean(block: np.ndarray) -> np.ndarray:
    """Vectorized mean statistic for the bootstrap (reduces ``axis=1``)."""
    return np.mean(block, axis=1)


def ratio_ci_bootstrap(
    numerator,
    denominator,
    *,
    confidence: float = 0.95,
    n_boot: int = 1000,
    seed: int = 0,
    min_runs: int = 2,
) -> ConfidenceInterval:
    """Hierarchical-bootstrap percentile CI for the ratio of means.

    Resamples the *top level* of each side — the run means, which carry
    all the independent replication per the Kalibera–Jones decomposition
    — with :func:`repro.stats.bootstrap.bootstrap_distribution`, and
    takes the percentile interval of the replicate ratios.  Within-run
    resampling is omitted deliberately: its contribution to the variance
    of the grand mean is second-order (``T²_within / (r·n_iters)``), and
    run-level resampling keeps the replicate count the only cost knob.

    An assumption-light cross-check of :func:`ratio_ci`: agreement
    certifies the asymptotic interval; disagreement flags data too
    irregular for it (the compare engine reports both).
    """
    check_prob(confidence, "confidence")
    runs_a = _as_runs_matrix(numerator)
    runs_b = _as_runs_matrix(denominator)
    if len(runs_a) < min_runs:
        raise InsufficientDataError(min_runs, len(runs_a), "bootstrap ratio numerator runs")
    if len(runs_b) < min_runs:
        raise InsufficientDataError(min_runs, len(runs_b), "bootstrap ratio denominator runs")
    means_a = np.array([r.mean() for r in runs_a])
    means_b = np.array([r.mean() for r in runs_b])
    if float(means_b.mean()) == 0.0:
        raise ValidationError("ratio undefined: denominator mean is zero")
    estimate = float(means_a.mean()) / float(means_b.mean())
    n = sum(r.size for r in runs_a) + sum(r.size for r in runs_b)
    if means_a.size < 2 or means_b.size < 2:
        # bootstrap_distribution needs >= 2 values; degenerate point CI.
        return ConfidenceInterval(
            estimate=estimate, low=estimate, high=estimate,
            confidence=confidence, statistic="ratio-of-means[bootstrap]", n=n,
        )
    # Independent resampling of the two sides (the measurements are
    # independent experiments); seeds derive deterministically from the
    # caller's seed so replicates are reproducible.
    reps_a = bootstrap_distribution(
        means_a, _row_mean, n_boot=n_boot, seed=seed, vectorized=True
    )
    reps_b = bootstrap_distribution(
        means_b, _row_mean, n_boot=n_boot, seed=seed + 1, vectorized=True
    )
    nonzero = reps_b != 0.0
    ratios = reps_a[nonzero] / reps_b[nonzero]
    if ratios.size == 0:
        raise ValidationError("bootstrap ratio degenerate: all denominator replicates zero")
    alpha = 1.0 - confidence
    low, high = np.quantile(ratios, [alpha / 2.0, 1.0 - alpha / 2.0])
    return ConfidenceInterval(
        estimate=estimate,
        low=float(low),
        high=float(high),
        confidence=confidence,
        statistic="ratio-of-means[bootstrap]",
        n=n,
    )
