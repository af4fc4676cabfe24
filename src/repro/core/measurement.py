"""Measurement containers: values + unit + provenance.

A :class:`MeasurementSet` is the unit of data flowing between the
benchmark runner, the statistics engine, and the report layer.  It carries
what Rule 5/9/10 demand be reported alongside the numbers: the unit, how
many warmup iterations were dropped, whether values are per-event or
k-batched means, whether the data is believed deterministic, and free-form
metadata about the setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

import numpy as np

from .._validation import as_sample, check_int
from ..errors import ValidationError
from ..stats.ci import ConfidenceInterval, mean_ci, median_ci, quantile_ci
from ..stats.normality import NormalityReport, diagnose
from ..stats.streaming import StreamingSummary
from ..stats.summaries import Summary, summarize
from .units import format_quantity

__all__ = ["MeasurementSet"]


@dataclass(frozen=True)
class MeasurementSet:
    """An immutable batch of measurements of one quantity.

    Attributes
    ----------
    values:
        The observations (read-only float64 array).
    unit:
        Measurement unit, e.g. ``"s"`` or ``"flop/s"``.
    name:
        What was measured (``"HPL completion time"``).
    warmup_dropped:
        Number of warmup iterations excluded before these values
        (Section 4.1.2 "Warmup").
    batch_k:
        1 for per-event measurements; k > 1 means every value is the mean
        of k events, which forfeits per-event CIs and exact ranks
        (Section 4.2.1 "Measuring multiple events").
    deterministic:
        Declares the quantity deterministic (e.g. a flop count).  Rule 5
        requires stating this; statistics that need spread refuse to run
        on deterministic sets with zero variance pretensions.
    metadata:
        Free-form experimental-setup annotations.
    """

    values: np.ndarray
    unit: str
    name: str = "measurement"
    warmup_dropped: int = 0
    batch_k: int = 1
    deterministic: bool = False
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = as_sample(self.values, what=self.name)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        check_int(self.warmup_dropped, "warmup_dropped", minimum=0)
        check_int(self.batch_k, "batch_k", minimum=1)
        object.__setattr__(self, "metadata", dict(self.metadata))

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values)

    @property
    def n(self) -> int:
        """Number of retained measurements."""
        return len(self)

    # -- out-of-core construction -------------------------------------------

    @classmethod
    def from_store(
        cls,
        store: Any,
        fingerprint: str,
        *,
        unit: str,
        name: str = "measurement",
        warmup_dropped: int = 0,
        batch_k: int = 1,
        deterministic: bool = False,
        metadata: Mapping[str, Any] | None = None,
    ) -> "MeasurementSet":
        """A set whose values are a lazily memory-mapped store column.

        The returned set behaves exactly like an in-memory one (the
        ``values`` array is a read-only slice of the shard mapping), but
        no sample bytes are read until a statistic touches them — use
        :meth:`iter_chunks` / :meth:`streaming_summary` to keep analysis
        bounded.  The full-sample finiteness scan of the normal
        constructor is skipped: the store validated every chunk at append
        time, and scanning here would defeat the laziness.

        The set carries *metadata* and nothing else; the store entry's
        own metadata stays in the store
        (:meth:`repro.store.ShardStore.metadata`).

        Raises :class:`ValidationError` when the entry is absent (or was
        quarantined by the store during the read).
        """
        got = store.get(fingerprint)
        if got is None:
            raise ValidationError(
                f"store at {getattr(store, 'path', '?')} has no entry "
                f"{fingerprint!r} (missing or quarantined)"
            )
        values, _ = got
        ms = cls.__new__(cls)
        object.__setattr__(ms, "values", values)
        object.__setattr__(ms, "unit", unit)
        object.__setattr__(ms, "name", name)
        object.__setattr__(
            ms, "warmup_dropped", check_int(warmup_dropped, "warmup_dropped", minimum=0)
        )
        object.__setattr__(ms, "batch_k", check_int(batch_k, "batch_k", minimum=1))
        object.__setattr__(ms, "deterministic", bool(deterministic))
        object.__setattr__(ms, "metadata", dict(metadata or {}))
        return ms

    # -- streaming statistics -----------------------------------------------

    def iter_chunks(self, chunk_rows: int = 512 * 1024):
        """Yield ``values`` in bounded read-only chunks (views, no copies)."""
        check_int(chunk_rows, "chunk_rows", minimum=1)
        for start in range(0, self.values.size, chunk_rows):
            yield self.values[start : start + chunk_rows]

    def streaming_summary(
        self,
        *,
        sketch_k: int | None = None,
        seed: int | None = None,
        chunk_rows: int = 512 * 1024,
    ) -> StreamingSummary:
        """A :class:`~repro.stats.streaming.StreamingSummary` of the sample.

        One bounded pass over :meth:`iter_chunks` — mean/std/CoV and the
        extremes exact, quantiles within the sketch's documented
        rank-error bound.  Call ``.summary()`` on the result for the
        :class:`~repro.stats.summaries.Summary` dataclass, or keep the
        object to merge with other partial summaries.
        """
        kwargs: dict[str, Any] = {}
        if sketch_k is not None:
            kwargs["sketch_k"] = sketch_k
        acc = StreamingSummary(seed=seed, **kwargs)
        acc.update_chunks(self.iter_chunks(chunk_rows))
        return acc

    # -- derived sets --------------------------------------------------------

    def with_metadata(self, **extra: Any) -> "MeasurementSet":
        """A copy with additional metadata entries."""
        md = {**self.metadata, **extra}
        return replace(self, metadata=md)

    def with_provenance(self, provenance: Any) -> "MeasurementSet":
        """A copy carrying a :class:`repro.obs.Provenance` manifest.

        Accepts a manifest object or an already serialized dict; stored
        under the ``"provenance"`` metadata key so it survives every JSON
        round-trip (campaign records, cache entries, figure exports).
        """
        payload = (
            provenance.to_dict() if hasattr(provenance, "to_dict") else dict(provenance)
        )
        return self.with_metadata(provenance=payload)

    def provenance(self):
        """The attached :class:`repro.obs.Provenance`, or ``None``.

        Deserialized on access, so sets loaded from JSON behave exactly
        like freshly measured ones.
        """
        payload = self.metadata.get("provenance")
        if payload is None:
            return None
        from ..obs import Provenance  # lazy: core must not import obs eagerly

        return payload if isinstance(payload, Provenance) else Provenance.from_dict(payload)

    def converted(self, factor: float, unit: str) -> "MeasurementSet":
        """Unit conversion by a multiplicative factor (e.g. s -> us)."""
        if factor <= 0:
            raise ValidationError("conversion factor must be positive")
        return replace(self, values=self.values * factor, unit=unit)

    # -- statistics (thin delegations to repro.stats) -----------------------

    def summary(self) -> Summary:
        """Descriptive statistics of the sample."""
        return summarize(self.values)

    def mean_ci(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Student-t CI of the mean (check normality first, Rule 6)."""
        return mean_ci(self.values, confidence)

    def median_ci(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Nonparametric CI of the median.

        Refused for k-batched data: ranks of batch means are not ranks of
        events (Section 4.2.1).
        """
        self._require_per_event("median/rank statistics")
        return median_ci(self.values, confidence)

    def quantile_ci(self, q: float, confidence: float = 0.95) -> ConfidenceInterval:
        """Nonparametric CI of quantile *q* (per-event data only)."""
        self._require_per_event("quantile statistics")
        return quantile_ci(self.values, q, confidence)

    def normality(self, alpha: float = 0.05) -> NormalityReport:
        """Run the Rule 6 normality diagnostic on the sample."""
        return diagnose(self.values, alpha)

    def _require_per_event(self, what: str) -> None:
        if self.batch_k > 1:
            raise ValidationError(
                f"{what} requires per-event measurements, but this set holds "
                f"means of k={self.batch_k} events (Section 4.2.1: measure "
                f"single events to allow exact ranks and CIs)"
            )

    # -- presentation --------------------------------------------------------

    def _fmt(self, value: float) -> str:
        """Format with canonical prefixes when the unit is known, else plainly.

        Users may store pre-scaled units ("us", "Gflop/s"); those are kept
        verbatim rather than rejected.
        """
        try:
            return format_quantity(value, self.unit)
        except Exception:
            return f"{value:.6g} {self.unit}"

    def describe(self) -> str:
        """Multi-line human-readable description with Rule-5 disclosure."""
        s = self.summary()
        det = "deterministic" if self.deterministic else "nondeterministic"
        batching = (
            "per-event"
            if self.batch_k == 1
            else f"means of k={self.batch_k} events"
        )
        lines = [
            f"{self.name}: n={self.n} ({det}, {batching}, "
            f"{self.warmup_dropped} warmup dropped)",
            f"  mean   {self._fmt(s.mean)}"
            f"   std {self._fmt(s.std)}   CoV {s.cov:.3f}",
            f"  median {self._fmt(s.median)}"
            f"   IQR [{self._fmt(s.q25)}, {self._fmt(s.q75)}]",
            f"  range  [{self._fmt(s.minimum)}, {self._fmt(s.maximum)}]",
        ]
        return "\n".join(lines)
