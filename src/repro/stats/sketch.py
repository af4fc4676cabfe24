"""Mergeable quantile sketches for out-of-core rank statistics.

The paper's quantile machinery (Rules 5–8: medians, arbitrary quantiles,
and their nonparametric rank CIs) assumes a sorted in-memory sample.  A
campaign spilled through :mod:`repro.store` never holds its sample, so
this module provides a **KLL sketch** (Karnin, Lang & Liberty, FOCS'16,
simplified): a compactor hierarchy in which level *h* holds items of
weight ``2**h``, levels are capped geometrically (``~k·(2/3)^depth``),
and an over-full level is sorted and its random-parity half promoted one
level up.  Updates are O(1) amortized, space is O(k·log(n/k)), and two
sketches over disjoint streams merge exactly (level-wise concatenation
followed by compaction) — which is what lets parallel workers each sketch
their own shards.

Error model — *rank* error, not value error: for any value *v*, the
sketch's estimated rank is within ``ε·n`` of the true rank, with
``ε ≈ SKETCH_RANK_ERROR_C / k`` (the constant is *measured*, not assumed:
``repro calibrate`` runs sketch-vs-exact cells across every ground-truth
generator and flags the envelope if the bound is violated at the 99 %
level; see docs/CALIBRATION.md).  Quantile CIs therefore take the paper's
rank construction (:func:`repro.stats.ci.quantile_ci_ranks`) and widen
both ranks by ``⌈ε·n⌉`` before reading the order statistics out of the
sketch — the sketch's uncertainty is disclosed in the interval, never
hidden (Rule 5).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

import numpy as np

from .._validation import as_sample, check_int, check_prob
from ..errors import InsufficientDataError, ValidationError
from .ci import ConfidenceInterval, quantile_ci_ranks, ranks_coverage_limited

__all__ = ["KLLSketch", "SKETCH_RANK_ERROR_C", "DEFAULT_SKETCH_K"]

#: Empirical rank-error envelope constant: ``ε = SKETCH_RANK_ERROR_C / k``
#: bounds the 99th percentile of observed |est_rank − true_rank|/n across
#: the calibration generators (enforced by the ``sketch_rank_error``
#: cells of ``repro calibrate``; see docs/CALIBRATION.md).
SKETCH_RANK_ERROR_C = 4.0

#: Default sketch parameter: ε ≈ 2 % rank error, ~2–3 KB of state.
DEFAULT_SKETCH_K = 200

#: Floor on any level's capacity — below this, compaction churn costs
#: more accuracy than the memory it saves.
_MIN_LEVEL_CAP = 8

#: Parity seed used when the caller does not supply one.  Fixed (not
#: entropy-derived) so that sketch-based reports are reproducible by
#: default, matching the library-wide determinism contract.
_DEFAULT_SEED = 0x6B6C6C  # "kll"


class KLLSketch:
    """A mergeable KLL quantile sketch over a float64 stream.

    Parameters
    ----------
    k:
        Accuracy/space knob: rank error ``ε ≈ SKETCH_RANK_ERROR_C / k``,
        space ``O(k log(n/k))``.
    seed:
        Seed for the compaction parity coin.  Defaults to a fixed
        constant so identical streams produce identical sketches.
    """

    def __init__(self, k: int = DEFAULT_SKETCH_K, *, seed: int | None = None) -> None:
        self.k = check_int(k, "k", minimum=_MIN_LEVEL_CAP)
        self._seed = _DEFAULT_SEED if seed is None else int(seed)
        self._rng = np.random.default_rng(self._seed)
        self._levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self._buf: list[float] = []
        #: Exact number of observations fed in (weights always sum to n).
        self.n = 0

    # -- capacities and compaction ---------------------------------------

    def _cap(self, h: int) -> int:
        depth = len(self._levels) - 1 - h
        return max(_MIN_LEVEL_CAP, math.ceil(self.k * (2.0 / 3.0) ** depth))

    def _size(self) -> int:
        return sum(lvl.size for lvl in self._levels) + len(self._buf)

    def _compact_level(self, h: int) -> None:
        lvl = self._levels[h]
        keep = np.empty(0, dtype=np.float64)
        if lvl.size % 2:
            # Promoting half of an odd level would change the total weight
            # (weights must sum to n exactly); set aside one uniformly
            # random item — unbiased, unlike keeping an extreme — and
            # compact the even remainder.
            j = int(self._rng.integers(0, lvl.size))
            keep = lvl[j : j + 1].copy()
            lvl = np.delete(lvl, j)
        arr = np.sort(lvl)
        offset = int(self._rng.integers(0, 2))
        promoted = arr[offset::2].copy()
        self._levels[h] = keep
        if h + 1 == len(self._levels):
            self._levels.append(promoted)
        else:
            self._levels[h + 1] = np.concatenate([self._levels[h + 1], promoted])

    def _compress(self) -> None:
        while sum(lvl.size for lvl in self._levels) > sum(
            self._cap(h) for h in range(len(self._levels))
        ):
            for h, lvl in enumerate(self._levels):
                if lvl.size > self._cap(h):
                    self._compact_level(h)
                    break
            else:
                break

    def _flush(self) -> None:
        if self._buf:
            block = np.asarray(self._buf, dtype=np.float64)
            self._buf.clear()
            self._levels[0] = np.concatenate([self._levels[0], block])
            self._compress()

    # -- updates ----------------------------------------------------------

    def update(self, x: float) -> None:
        """Incorporate one observation, O(1) amortized."""
        x = float(x)
        if not math.isfinite(x):
            raise ValidationError(f"sketch values must be finite, got {x}")
        self._buf.append(x)
        self.n += 1
        if len(self._buf) >= self.k:
            self._flush()

    def update_many(self, data: Iterable[float]) -> None:
        """Incorporate a batch (vectorized; empty input is a no-op)."""
        x = as_sample(data, min_n=0, what="sketch batch")
        if x.size == 0:
            return
        self._flush()
        self._levels[0] = np.concatenate([self._levels[0], x])
        self.n += int(x.size)
        self._compress()

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        """Combine two sketches (inputs untouched); weights stay exact.

        The merged sketch uses ``min(self.k, other.k)`` — the looser of
        the two error bounds — and the left operand's parity seed.
        """
        if not isinstance(other, KLLSketch):
            raise ValidationError(f"cannot merge KLLSketch with {type(other).__name__}")
        self._flush()
        other._flush()
        out = KLLSketch(k=min(self.k, other.k), seed=self._seed)
        depth = max(len(self._levels), len(other._levels))
        out._levels = [
            np.concatenate(
                [
                    self._levels[h] if h < len(self._levels) else np.empty(0),
                    other._levels[h] if h < len(other._levels) else np.empty(0),
                ]
            )
            for h in range(depth)
        ]
        out.n = self.n + other.n
        out._compress()
        return out

    # -- queries ----------------------------------------------------------

    def _cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted retained items and their cumulative weights (sum = n)."""
        self._flush()
        items = np.concatenate(self._levels)
        if items.size == 0:
            return items, items
        weights = np.concatenate(
            [np.full(lvl.size, float(1 << h)) for h, lvl in enumerate(self._levels)]
        )
        order = np.argsort(items, kind="stable")
        return items[order], np.cumsum(weights[order])

    def _item_at_rank(self, rank_1based: float) -> float:
        items, cw = self._cdf()
        idx = int(np.searchsorted(cw, rank_1based, side="left"))
        return float(items[min(idx, items.size - 1)])

    def quantile(self, q: float) -> float:
        """The retained item whose estimated rank is closest to ``q·n``.

        Exact (an actually observed value, the paper's rank-based
        definition) while no compaction has happened; otherwise within
        :meth:`rank_error_bound` ranks of the true quantile.
        """
        check_prob(q, "q")
        if self.n == 0:
            raise InsufficientDataError(1, 0, "sketch quantile")
        return self._item_at_rank(q * self.n)

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """:meth:`quantile` for each q in *qs*, in order."""
        return [self.quantile(q) for q in qs]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def rank(self, value: float) -> float:
        """Estimated fraction of the stream ``<= value`` (in [0, 1])."""
        if self.n == 0:
            raise InsufficientDataError(1, 0, "sketch rank")
        items, cw = self._cdf()
        idx = int(np.searchsorted(items, float(value), side="right"))
        return float(cw[idx - 1] / self.n) if idx > 0 else 0.0

    def rank_error_bound(self) -> float:
        """The documented normalized rank-error envelope ``ε = C/k``.

        Observed error is below this with ≥ 99 % probability across the
        calibration generators (measured, not assumed — see the
        ``sketch_rank_error`` cells in docs/CALIBRATION.md).  While the
        sketch is still exact (nothing compacted), the error is zero.
        """
        if self.is_exact:
            return 0.0
        return SKETCH_RANK_ERROR_C / self.k

    @property
    def is_exact(self) -> bool:
        """True while every observation is still retained (no compaction)."""
        return sum(lvl.size for lvl in self._levels[1:]) == 0 and (
            self._levels[0].size + len(self._buf) == self.n
        )

    def quantile_ci(self, q: float, confidence: float = 0.95) -> ConfidenceInterval:
        """Nonparametric rank CI for quantile *q*, widened by sketch error.

        Takes the paper's Le Boudec rank construction on the *true* n,
        then pads both ranks outward by ``⌈ε·n⌉`` so the sketch's rank
        uncertainty is inside the interval, not silently added to it.
        ``coverage_limited`` (and the accompanying
        :class:`~repro.errors.CoverageWarning`) keep the small-n
        disclosure semantics of :func:`repro.stats.ci.quantile_ci`.
        """
        lo, hi = quantile_ci_ranks(self.n, q, confidence)
        pad = math.ceil(self.rank_error_bound() * self.n)
        lo = max(0, lo - pad)
        hi = min(self.n - 1, hi + pad)
        return ConfidenceInterval(
            estimate=self.quantile(q),
            low=self._item_at_rank(lo + 1),
            high=self._item_at_rank(hi + 1),
            confidence=confidence,
            statistic=f"quantile({q:g})[sketch k={self.k}]",
            n=self.n,
            coverage_limited=ranks_coverage_limited(self.n, q, confidence),
        )

    def median_ci(self, confidence: float = 0.95) -> ConfidenceInterval:
        """:meth:`quantile_ci` at q = 0.5."""
        return self.quantile_ci(0.5, confidence)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready state (rides in manifests and report exports)."""
        self._flush()
        return {
            "k": self.k,
            "seed": self._seed,
            "n": self.n,
            "levels": [lvl.tolist() for lvl in self._levels],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "KLLSketch":
        try:
            out = cls(int(payload["k"]), seed=int(payload["seed"]))
            levels = payload["levels"]
            n = int(payload["n"])
            if not isinstance(levels, (list, tuple)) or not levels:
                raise ValueError("levels must be a non-empty list")
            out._levels = [
                as_sample(lvl, min_n=0, what="sketch level") for lvl in levels
            ]
            weight = sum(lvl.size * (1 << h) for h, lvl in enumerate(out._levels))
            if weight != n:
                raise ValueError(f"level weights sum to {weight}, n says {n}")
            out.n = n
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed sketch payload: {exc}") from exc
        return out

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        retained = sum(lvl.size for lvl in self._levels) + len(self._buf)
        return (
            f"KLLSketch(k={self.k}, n={self.n}, retained={retained}, "
            f"levels={len(self._levels)}, eps={self.rank_error_bound():.4g})"
        )
