"""Density estimation for reporting distributions (Figures 1–3, 7c).

The paper's figures show kernel density estimates of completion-time
distributions.  We implement a vectorized Gaussian KDE with Scott's and
Silverman's bandwidth rules, plus histograms and the ECDF — the building
blocks of the report layer's density/violin plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .._validation import as_sample, check_int, check_positive
from ..errors import ValidationError

__all__ = ["bandwidth", "GaussianKDE", "Histogram", "histogram", "ecdf"]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
#: Kernel terms per :meth:`GaussianKDE.__call__` chunk (256 KiB of float64).
_CHUNK_ELEMENTS = 32_768


def bandwidth(
    data: Iterable[float], rule: Literal["scott", "silverman"] = "scott"
) -> float:
    """Kernel bandwidth by Scott's or Silverman's rule of thumb.

    Both use the robust spread ``min(s, IQR/1.349)`` so heavy tails do not
    oversmooth the mode structure typical of noisy runtimes.
    """
    x = as_sample(data, min_n=2, what="bandwidth")
    n = x.size
    s = float(x.std(ddof=1))
    q1, q3 = np.quantile(x, [0.25, 0.75])
    robust = min(s, (q3 - q1) / 1.349) if q3 > q1 else s
    if robust == 0.0:
        raise ValidationError("zero spread: density estimation is degenerate")
    if rule == "scott":
        return float(1.059 * robust * n ** (-1.0 / 5.0))
    if rule == "silverman":
        return float(0.9 * robust * n ** (-1.0 / 5.0))
    raise ValidationError(f"unknown bandwidth rule {rule!r}")


@dataclass(frozen=True)
class GaussianKDE:
    """Gaussian kernel density estimate.

    Evaluate with :meth:`__call__` at arbitrary points or grab a ready-made
    plotting grid with :meth:`grid`.  Evaluation is O(n·m) but fully
    vectorized; for the paper's 10⁶-sample figures use
    ``GaussianKDE.from_sample(..., max_points=...)`` to evaluate on a
    deterministic subsample.
    """

    points: np.ndarray
    h: float

    @classmethod
    def from_sample(
        cls,
        data: Iterable[float],
        *,
        rule: Literal["scott", "silverman"] = "scott",
        h: float | None = None,
        max_points: int = 100_000,
        seed: int = 0,
    ) -> "GaussianKDE":
        """Build a KDE, optionally with an explicit bandwidth ``h``."""
        x = as_sample(data, min_n=2, what="KDE")
        bw = check_positive(h, "h") if h is not None else bandwidth(x, rule)
        if x.size > max_points:
            rng = np.random.default_rng(seed)
            x = rng.choice(x, size=max_points, replace=False)
        return cls(points=np.sort(x), h=bw)

    def __call__(self, at: Iterable[float]) -> np.ndarray:
        """Estimated density at each evaluation point (vectorized)."""
        grid = np.atleast_1d(np.asarray(at, dtype=np.float64))
        # Chunks of about _CHUNK_ELEMENTS kernel terms keep the temporaries
        # in cache.  Each grid row sums on its own, so the result does not
        # depend on the chunk size.
        out = np.empty(grid.size)
        chunk = max(1, _CHUNK_ELEMENTS // max(self.points.size, 1))
        for start in range(0, grid.size, chunk):
            g = grid[start : start + chunk, None]
            z = (g - self.points[None, :]) / self.h
            out[start : start + chunk] = np.exp(-0.5 * z * z).sum(axis=1)
        out /= self.points.size * self.h * _SQRT_2PI
        return out

    def grid(self, n: int = 256, pad: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
        """Evaluation grid spanning the data ± ``pad`` bandwidths.

        Returns ``(x, density)`` ready for a density plot (Figure 1 style).
        """
        n = check_int(n, "n", minimum=2)
        lo = self.points[0] - pad * self.h
        hi = self.points[-1] + pad * self.h
        xs = np.linspace(lo, hi, n)
        return xs, self(xs)


@dataclass(frozen=True)
class Histogram:
    """Histogram with both count and density normalizations."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        """Bin midpoints."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def density(self) -> np.ndarray:
        """Counts normalized so the histogram integrates to 1."""
        widths = np.diff(self.edges)
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(widths)
        return self.counts / (total * widths)


def histogram(data: Iterable[float], bins: int = 50) -> Histogram:
    """Equal-width histogram of the sample."""
    x = as_sample(data, what="histogram")
    bins = check_int(bins, "bins", minimum=1)
    counts, edges = np.histogram(x, bins=bins)
    return Histogram(edges=edges, counts=counts)


def ecdf(data: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns ``(sorted values, F(value))``."""
    x = np.sort(as_sample(data, what="ecdf"))
    return x, np.arange(1, x.size + 1) / x.size
