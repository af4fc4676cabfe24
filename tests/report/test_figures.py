"""Tests for the figure builders: each paper figure's shape must hold.

These are the reproduction's acceptance tests: small-n versions of every
figure, checking the qualitative claims the paper makes about each.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.report import (
    fig1_hpl,
    fig2_normalization,
    fig3_significance,
    fig4_quantile_regression,
    fig5_reduce_scaling,
    fig6_rank_variation,
    fig7ab_bounds,
    fig7c_distribution,
)


@pytest.fixture(scope="module")
def f1():
    return fig1_hpl(50)


@pytest.fixture(scope="module")
def f2():
    return fig2_normalization(100_000)


@pytest.fixture(scope="module")
def f3():
    return fig3_significance(60_000)


@pytest.fixture(scope="module")
def f5():
    return fig5_reduce_scaling(tuple(range(2, 34)), 150)


class TestFig1:
    def test_annotation_ordering(self, f1):
        rows = dict(f1.annotation_rows())
        assert rows["Max"] > rows["95% Quantile"] > rows["Median"] > rows["Min"]

    def test_mean_rate_is_cost_first(self, f1):
        """Rule 3: the 'mean' rate must be work / mean(time)."""
        flops = f1.rate_median * np.median(f1.times) * 1e12
        assert f1.rate_mean == pytest.approx(flops / f1.times.mean() / 1e12, rel=1e-6)

    def test_spread_matches_paper(self, f1):
        """Variation up to ~20%, slowest run well below the headline."""
        assert (f1.times.max() - f1.times.min()) / f1.times.min() > 0.10
        assert f1.rate_min < 0.9 * f1.rate_max

    def test_density_positive_over_support(self, f1):
        assert np.all(f1.density_y >= 0)
        assert f1.density_y.max() > 0

    def test_below_peak(self, f1):
        assert f1.rate_max < f1.peak_tflops  # 94.5

    def test_rate_anchors(self, f1):
        """Paper: Max 77.38 and Min 61.23 Tflop/s."""
        rows = dict(f1.annotation_rows())
        assert 74 < rows["Max"] < 80
        assert 60 < rows["Min"] < 68

    def test_median_ci_brackets_median(self, f1):
        assert f1.median_ci99.low <= f1.summary.median <= f1.median_ci99.high


class TestFig2:
    def test_variants_present(self, f2):
        names = [v.name for v in f2.variants]
        assert names == ["original", "log", "block_k100", "block_k1000"]

    def test_original_not_normal(self, f2):
        assert not f2.variant("original").report.plausibly_normal

    def test_qq_straightness_improves_with_k(self, f2):
        """CLT at work: larger k gives straighter Q-Q plots."""
        qq = {v.name: v.report.qq_corr for v in f2.variants}
        assert qq["block_k100"] > qq["log"] > qq["original"]
        assert qq["block_k1000"] >= qq["block_k100"] - 0.01
        assert qq["block_k1000"] > 0.97

    def test_block_sizes(self, f2):
        assert f2.variant("block_k100").data.size == 1000
        assert f2.variant("block_k1000").data.size == 100

    def test_qq_series_capped(self, f2):
        assert f2.variant("original").qq_sample.size <= 512


class TestFig3:
    def test_medians_differ_significantly(self, f3):
        assert f3.medians_differ_significantly

    def test_median_cis_disjoint(self, f3):
        assert not f3.median_cis_overlap

    def test_supports_overlap(self, f3):
        """The figure's point: significance despite heavy overlap."""
        lo = max(f3.dora.latencies.min(), f3.pilatus.latencies.min())
        hi = min(f3.dora.latencies.max(), f3.pilatus.latencies.max())
        assert lo < hi

    def test_min_max_anchors(self, f3):
        assert f3.dora.summary.minimum == pytest.approx(1.57, abs=0.05)
        assert f3.pilatus.summary.minimum == pytest.approx(1.48, abs=0.05)
        assert f3.pilatus.summary.minimum < f3.dora.summary.minimum
        assert f3.pilatus.summary.maximum > f3.dora.summary.maximum

    def test_pilatus_mean_higher(self, f3):
        diff = f3.pilatus.summary.mean - f3.dora.summary.mean
        assert 0.04 < diff < 0.2  # paper: 0.108 us


class TestFig4:
    @pytest.fixture(scope="class")
    def f4(self):
        return fig4_quantile_regression(60_000)

    def test_crossover_exists(self, f4):
        assert len(f4.crossover_taus()) >= 1

    def test_sign_pattern(self, f4):
        diffs = [d.coef[0] for d in f4.difference]
        assert diffs[0] < 0   # Pilatus faster at low quantiles
        assert diffs[-1] > 0  # Pilatus slower at high quantiles

    def test_mean_difference_positive_but_misleading(self, f4):
        """A mean-only analysis would say 'Pilatus is ~0.1 us slower' and
        miss the low-quantile advantage entirely (Rule 8)."""
        assert 0.03 < f4.mean_difference < 0.2

    def test_intercept_monotone_in_tau(self, f4):
        vals = [r.coef[0] for r in f4.intercept]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bootstrap_cis_bracket(self, f4):
        for r in f4.intercept + f4.difference:
            assert r.low[0] <= r.coef[0] <= r.high[0]


class TestFig5:
    def test_powers_of_two_flagged(self, f5):
        flags = {pt.p: pt.power_of_two for pt in f5.points}
        assert flags[2] and flags[16] and flags[32]
        assert not flags[3] and not flags[17]

    def test_pof2_advantage(self, f5):
        """Figure 5: non-powers-of-two are noticeably slower."""
        assert f5.pof2_advantage() > 1.1

    def test_growth_with_p(self, f5):
        by_p = {pt.p: pt.median_us for pt in f5.points}
        assert by_p[32] > by_p[4]

    def test_step_at_power_of_two_boundaries(self, f5):
        by_p = {pt.p: pt.median_us for pt in f5.points}
        assert by_p[33] > by_p[32]
        assert by_p[17] > by_p[16]

    def test_quartiles_bracket_median(self, f5):
        for pt in f5.points:
            assert pt.q25_us <= pt.median_us <= pt.q75_us


class TestFig6:
    @pytest.fixture(scope="class")
    def f6(self):
        return fig6_rank_variation(32, 150)

    def test_rank_heterogeneity_detected(self, f6):
        assert not f6.rank_summary.homogeneous

    def test_boxstats_per_rank(self, f6):
        assert len(f6.boxstats) == 32

    def test_some_ranks_systematically_slower(self, f6):
        meds = np.array([b["median"] for b in f6.boxstats])
        assert meds.max() > 2.0 * np.median(meds)
        assert f6.slow_ranks()

    def test_root_among_slowest(self, f6):
        """Rank 0 receives messages in every round; it completes last."""
        meds = np.array([b["median"] for b in f6.boxstats])
        assert meds[0] >= np.quantile(meds, 0.9)


class TestFig7ab:
    @pytest.fixture(scope="class")
    def f7(self):
        return fig7ab_bounds()

    def test_bounds_bracket_measurement(self, f7):
        for t_meas, t_ideal in zip(f7.measured_times, f7.ideal_times):
            assert t_meas >= t_ideal * 0.999

    def test_parallel_overhead_model_tightest(self, f7):
        """'The parallel overhead bounds model explains nearly all the
        scaling observed'."""
        err = f7.model_error()
        assert err["parallel_overheads"] < err["amdahl"] < err["ideal"]
        assert err["parallel_overheads"] < 0.10

    def test_ci_within_5pct(self, f7):
        assert f7.ci_within_5pct

    def test_speedup_below_ideal(self, f7):
        for s, p in zip(f7.measured_speedups, f7.ps):
            assert s <= p * 1.001

    def test_requires_base_case(self):
        with pytest.raises(ValueError):
            fig7ab_bounds(process_counts=(2, 4))


class TestFig7c:
    @pytest.fixture(scope="class")
    def f7c(self):
        return fig7c_distribution(60_000)

    def test_box_statistics_consistent(self, f7c):
        s = f7c.summary
        assert f7c.whisker_low <= s.q25 <= s.median <= s.q75 <= f7c.whisker_high

    def test_latency_range_matches_dora(self, f7c):
        assert f7c.summary.median == pytest.approx(1.72, abs=0.08)

    def test_median_ci_is_tight(self, f7c):
        assert f7c.median_ci95.relative_width < 0.01

    def test_geometric_between_median_and_mean(self, f7c):
        """For this right-skewed data: median < geometric <= arithmetic."""
        assert f7c.summary.median < f7c.geometric_mean <= f7c.summary.mean

    def test_violin_density_positive(self, f7c):
        assert np.all(f7c.violin_density >= 0)
        assert f7c.violin_density.max() > 0
