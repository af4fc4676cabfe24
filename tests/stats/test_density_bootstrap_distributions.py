"""Tests for repro.stats density estimation, bootstrap, and fits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.stats import (
    GaussianKDE,
    bandwidth,
    bootstrap_ci,
    bootstrap_distribution,
    ecdf,
    fit_lognormal,
    fit_normal,
    histogram,
)


def _dense_kde(kde, at):
    """The dense oracle: every kernel term of every grid row exp'd, none
    skipped, summed in the chunks ``GaussianKDE.__call__`` uses."""
    grid = np.atleast_1d(np.asarray(at, dtype=np.float64))
    out = np.empty(grid.size)
    chunk = max(1, 32_768 // max(kde.points.size, 1))
    for start in range(0, grid.size, chunk):
        g = grid[start : start + chunk, None]
        z = (g - kde.points[None, :]) / kde.h
        out[start : start + chunk] = np.exp(-0.5 * z * z).sum(axis=1)
    out /= kde.points.size * kde.h * float(np.sqrt(2.0 * np.pi))
    return out


class TestBandwidth:
    def test_scott_vs_silverman(self, normal_sample):
        assert bandwidth(normal_sample, "silverman") < bandwidth(normal_sample, "scott")

    def test_shrinks_with_n(self, rng):
        data = rng.normal(0, 1, 10_000)
        assert bandwidth(data) < bandwidth(data[:100])

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            bandwidth(np.full(10, 1.0))

    def test_unknown_rule(self, normal_sample):
        with pytest.raises(ValidationError):
            bandwidth(normal_sample, "magic")


class TestKDE:
    def test_integrates_to_one(self, lognormal_sample):
        kde = GaussianKDE.from_sample(lognormal_sample)
        xs, ys = kde.grid(512, pad=6.0)
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=0.01)

    def test_peak_near_mode(self, rng):
        data = rng.normal(5.0, 0.5, 5000)
        kde = GaussianKDE.from_sample(data)
        xs, ys = kde.grid(512)
        assert xs[np.argmax(ys)] == pytest.approx(5.0, abs=0.2)

    def test_density_nonnegative(self, lognormal_sample):
        kde = GaussianKDE.from_sample(lognormal_sample)
        assert np.all(kde(np.linspace(-10, 30, 100)) >= 0)

    def test_matches_scipy_gaussian_kde(self, rng):
        from scipy.stats import gaussian_kde

        data = rng.normal(0, 1, 500)
        h = bandwidth(data, "scott")
        ours = GaussianKDE(points=np.sort(data), h=h)
        ref = gaussian_kde(data, bw_method=h / data.std(ddof=1))
        xs = np.linspace(-3, 3, 50)
        assert np.allclose(ours(xs), ref(xs), rtol=0.02, atol=1e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3000),
        at=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=120),
        h=st.floats(1e-3, 1e2),
    )
    def test_chunking_is_bit_identical_to_row_by_row(self, points, at, h):
        kde = GaussianKDE(points=np.sort(np.array(points)), h=h)
        rows = np.concatenate([kde([x]) for x in at])
        assert np.array_equal(kde(at), rows)

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3000),
        near=st.lists(st.floats(-1e3, 1e3), max_size=80),
        far=st.lists(st.floats(-1e7, 1e7), max_size=20),
        # Bandwidths past the data's edges, near where terms underflow.
        edge=st.lists(st.floats(30.0, 45.0), max_size=20),
        h=st.floats(1e-3, 1e2),
    )
    def test_bit_identical_to_the_dense_oracle(self, points, near, far, edge, h):
        kde = GaussianKDE(points=np.sort(np.array(points)), h=h)
        lo, hi = kde.points[0], kde.points[-1]
        at = near + far + [lo - e * h for e in edge] + [hi + e * h for e in edge]
        dense = _dense_kde(kde, at)
        assert np.array_equal(kde(at), dense)
        # One row at a time, each row's window is its own.
        assert np.array_equal([kde([x])[0] for x in at], dense)

    def test_bit_identical_where_terms_underflow(self, rng):
        # Rows 35-45 bandwidths past the data, where the nearest terms
        # fall from subnormal to exactly 0.0; eight rows to a chunk, and a
        # normalization (n * h * sqrt(2 pi) < 1) that keeps subnormal sums.
        kde = GaussianKDE(points=np.sort(rng.normal(0.0, 1.0, 4096)), h=5e-5)
        offsets = np.linspace(35.0, 45.0, 1001) * kde.h
        xs = np.concatenate([kde.points[0] - offsets, kde.points[-1] + offsets])
        assert np.array_equal(kde(xs), _dense_kde(kde, xs))

    def test_unsorted_points_are_sorted(self):
        kde = GaussianKDE(points=np.array([3.0, 1.0, 2.0]), h=0.5)
        assert kde.points.tolist() == [1.0, 2.0, 3.0]

    def test_subsampling_cap(self, rng):
        data = rng.normal(0, 1, 50_000)
        kde = GaussianKDE.from_sample(data, max_points=1000, seed=1)
        assert kde.points.size == 1000

    def test_explicit_bandwidth(self, normal_sample):
        kde = GaussianKDE.from_sample(normal_sample, h=0.5)
        assert kde.h == 0.5


class TestHistogramEcdf:
    def test_histogram_counts_total(self, normal_sample):
        h = histogram(normal_sample, bins=20)
        assert h.counts.sum() == normal_sample.size
        assert h.centers.size == 20

    def test_histogram_density_integrates(self, lognormal_sample):
        h = histogram(lognormal_sample, bins=40)
        widths = np.diff(h.edges)
        assert float((h.density * widths).sum()) == pytest.approx(1.0)

    def test_ecdf_monotone_and_bounded(self, lognormal_sample):
        xs, fs = ecdf(lognormal_sample)
        assert np.all(np.diff(xs) >= 0)
        assert fs[0] == pytest.approx(1 / lognormal_sample.size)
        assert fs[-1] == 1.0


class TestBootstrap:
    def test_mean_ci_close_to_t_interval(self, rng):
        from repro.stats import mean_ci

        data = rng.normal(10, 2, 200)
        boot = bootstrap_ci(data, np.mean, n_boot=2000, seed=4)
        t_ci = mean_ci(data, 0.95)
        assert boot.low == pytest.approx(t_ci.low, abs=0.15)
        assert boot.high == pytest.approx(t_ci.high, abs=0.15)

    def test_vectorized_matches_loop(self, rng):
        data = rng.normal(0, 1, 100)
        loop = bootstrap_distribution(data, np.mean, n_boot=50, seed=7)
        fast = bootstrap_distribution(
            data, lambda m: m.mean(axis=1), n_boot=50, seed=7, vectorized=True
        )
        assert np.allclose(loop, fast)

    def test_vectorized_shape_validated(self, rng):
        with pytest.raises(ValidationError):
            bootstrap_distribution(
                rng.normal(0, 1, 50), lambda m: m.mean(), vectorized=True
            )

    def test_bca_vs_percentile_on_skewed(self, rng):
        """BCa shifts intervals on skewed statistics (it must differ)."""
        data = rng.lognormal(0, 1, 150)
        pct = bootstrap_ci(data, np.mean, method="percentile", n_boot=800, seed=1)
        bca = bootstrap_ci(data, np.mean, method="bca", n_boot=800, seed=1)
        assert (pct.low, pct.high) != (bca.low, bca.high)

    def test_unknown_method(self, normal_sample):
        with pytest.raises(ValidationError):
            bootstrap_ci(normal_sample, np.mean, method="jackknife")

    def test_deterministic_given_seed(self, normal_sample):
        a = bootstrap_ci(normal_sample, np.median, seed=5, n_boot=100)
        b = bootstrap_ci(normal_sample, np.median, seed=5, n_boot=100)
        assert (a.low, a.high) == (b.low, b.high)


class TestFits:
    def test_normal_fit_recovers_parameters(self, rng):
        data = rng.normal(3.0, 0.7, 20_000)
        fit = fit_normal(data)
        assert fit.mu == pytest.approx(3.0, abs=0.02)
        assert fit.sigma == pytest.approx(0.7, abs=0.02)

    def test_normal_pdf_integrates(self, rng):
        fit = fit_normal(rng.normal(0, 1, 1000))
        xs = np.linspace(-6, 6, 1000)
        assert np.trapezoid(fit.pdf(xs), xs) == pytest.approx(1.0, abs=1e-3)

    def test_lognormal_fit_recovers_parameters(self, rng):
        data = 2.0 + rng.lognormal(0.5, 0.4, 20_000)
        fit = fit_lognormal(data, shift=2.0)
        assert fit.mu == pytest.approx(0.5, abs=0.02)
        assert fit.sigma == pytest.approx(0.4, abs=0.02)
        assert fit.median == pytest.approx(2.0 + np.exp(0.5), abs=0.05)

    def test_lognormal_auto_shift_below_min(self, lognormal_sample):
        fit = fit_lognormal(lognormal_sample)
        assert fit.shift < lognormal_sample.min()

    def test_lognormal_mean_formula(self, rng):
        data = rng.lognormal(1.0, 0.3, 50_000)
        fit = fit_lognormal(data, shift=0.0)
        assert fit.mean == pytest.approx(data.mean(), rel=0.02)

    def test_lognormal_sampling_round_trip(self, rng):
        fit = fit_lognormal(1.0 + rng.lognormal(0, 0.5, 5000), shift=1.0)
        resampled = fit.sample(5000, rng)
        assert np.median(resampled) == pytest.approx(fit.median, rel=0.05)

    def test_bad_shift_rejected(self, lognormal_sample):
        with pytest.raises(ValidationError):
            fit_lognormal(lognormal_sample, shift=lognormal_sample.min() + 0.1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            fit_normal(np.full(10, 2.0))
