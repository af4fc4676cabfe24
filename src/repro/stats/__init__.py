"""Statistics engine: sound analysis of benchmark data (paper Section 3).

Submodules
----------
summaries
    Means for costs/rates/ratios (Rules 3–4), rank statistics, spread,
    online (Welford) moments.
ci
    Student-t mean CIs and nonparametric rank CIs for medians/quantiles
    (Rule 5).
normality
    Shapiro–Wilk and friends, Q-Q diagnostics (Rule 6).
normalize
    Log and CLT block-mean normalization (Figure 2).
compare
    t-test, ANOVA, Kruskal–Wallis, effect size (Rule 7).
quantreg
    Quantile regression by LP and group quantiles (Rule 8, Figure 4).
outliers
    Tukey-fence removal with mandatory reporting.
samplesize
    Measurement-count planning and sequential stopping (Section 4.2.2).
density
    KDE / histogram / ECDF for distribution reporting.
bootstrap
    Percentile and BCa bootstrap CIs (extension), with a chunked
    bounded-memory replicate path.
distributions
    Normal and shifted log-normal fits.
sketch
    Mergeable KLL quantile sketch with measured rank-error bounds.
streaming
    Bounded-memory summaries over chunked / out-of-core samples.
"""

from .summaries import (
    arithmetic_mean,
    harmonic_mean,
    geometric_mean,
    summarize_costs,
    summarize_rates,
    summarize_ratios,
    rate_from_costs,
    median,
    quantile,
    quartiles,
    iqr,
    sample_std,
    sample_var,
    coefficient_of_variation,
    RunningMoments,
    Summary,
    summarize,
)
from .ci import (
    ConfidenceInterval,
    mean_ci,
    median_ci,
    quantile_ci,
    intervals_overlap,
)
from .normality import (
    NormalityReport,
    shapiro_wilk,
    anderson_darling,
    kolmogorov_smirnov,
    qq_points,
    qq_correlation,
    skewness,
    excess_kurtosis,
    diagnose,
    is_plausibly_normal,
)
from .normalize import (
    log_transform,
    log_back_transform,
    block_means,
    NormalizationResult,
    auto_normalize,
)
from .compare import (
    TestOutcome,
    t_test,
    one_way_anova,
    kruskal_wallis,
    effect_size,
    compare_groups,
    GroupComparison,
)
from .quantreg import (
    pinball_loss,
    fit_quantile_lp,
    fit_group_quantiles,
    QuantRegResult,
    QuantileComparison,
    compare_quantiles,
)
from .outliers import tukey_fences, OutlierReport, remove_outliers
from .samplesize import required_n_normal, SequentialChecker
from .density import bandwidth, GaussianKDE, Histogram, histogram, ecdf
from .bootstrap import bootstrap_ci, bootstrap_distribution
from .distributions import NormalFit, LogNormalFit, fit_normal, fit_lognormal
from .factorial import TwoWayAnova, two_way_anova
from .nonparametric import mann_whitney, rank_biserial, SignTestResult, sign_test
from .multiple import holm_bonferroni, PairwiseResult, pairwise_comparisons
from .trend import MannKendallResult, mann_kendall, rolling_cov, rolling_median
from .power import t_test_power, required_n_for_power
from .sketch import KLLSketch, SKETCH_RANK_ERROR_C
from .streaming import StreamingSummary, summarize_chunks, summarize_store

__all__ = [
    # summaries
    "arithmetic_mean",
    "harmonic_mean",
    "geometric_mean",
    "summarize_costs",
    "summarize_rates",
    "summarize_ratios",
    "rate_from_costs",
    "median",
    "quantile",
    "quartiles",
    "iqr",
    "sample_std",
    "sample_var",
    "coefficient_of_variation",
    "RunningMoments",
    "Summary",
    "summarize",
    # ci
    "ConfidenceInterval",
    "mean_ci",
    "median_ci",
    "quantile_ci",
    "intervals_overlap",
    # normality
    "NormalityReport",
    "shapiro_wilk",
    "anderson_darling",
    "kolmogorov_smirnov",
    "qq_points",
    "qq_correlation",
    "skewness",
    "excess_kurtosis",
    "diagnose",
    "is_plausibly_normal",
    # normalize
    "log_transform",
    "log_back_transform",
    "block_means",
    "NormalizationResult",
    "auto_normalize",
    # compare
    "TestOutcome",
    "t_test",
    "one_way_anova",
    "kruskal_wallis",
    "effect_size",
    "compare_groups",
    "GroupComparison",
    # quantreg
    "pinball_loss",
    "fit_quantile_lp",
    "fit_group_quantiles",
    "QuantRegResult",
    "QuantileComparison",
    "compare_quantiles",
    # outliers
    "tukey_fences",
    "OutlierReport",
    "remove_outliers",
    # samplesize
    "required_n_normal",
    "SequentialChecker",
    # density
    "bandwidth",
    "GaussianKDE",
    "Histogram",
    "histogram",
    "ecdf",
    # bootstrap
    "bootstrap_ci",
    "bootstrap_distribution",
    # distributions
    "NormalFit",
    "LogNormalFit",
    "fit_normal",
    "fit_lognormal",
    # factorial
    "TwoWayAnova",
    "two_way_anova",
    # nonparametric
    "mann_whitney",
    "rank_biserial",
    "SignTestResult",
    "sign_test",
    # multiple comparisons
    "holm_bonferroni",
    "PairwiseResult",
    "pairwise_comparisons",
    # trend
    "MannKendallResult",
    "mann_kendall",
    "rolling_cov",
    "rolling_median",
    # power
    "t_test_power",
    "required_n_for_power",
    # sketch / streaming
    "KLLSketch",
    "SKETCH_RANK_ERROR_C",
    "StreamingSummary",
    "summarize_chunks",
    "summarize_store",
]
