"""Versioned benchmark-result records (the ``BENCH_*.json`` schema).

Every performance number this repository gates on flows through one
record type.  A :class:`BenchRecord` holds the *raw samples* of one
benchmark — structured by run (one process execution of the benchmark
harness) and iteration (one timed invocation inside a run) so the
Kalibera–Jones multi-level estimators in :mod:`repro.compare.kalibera`
can attribute variance to the right level — plus the parameters that
identify the configuration and the unit the samples are in.

A :class:`BenchSuiteResult` is the on-disk container: a mapping of
canonical record keys to records, a :class:`~repro.obs.Provenance`
manifest describing how the suite was produced, and a BLAKE2 integrity
digest over the deterministic payload so silent file corruption is
detected on read (extending the quarantine-on-corruption stance of the
result cache to the benchmark trajectory).

Schema versioning policy (see ``docs/COMPARE.md``):

* ``schema`` is a monotonically increasing integer stored in the file;
* readers reject any other schema, older or newer, with a
  :class:`~repro.errors.ValidationError` naming both versions;
* writers always emit the current :data:`BENCH_SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .._atomic import write_atomic
from .._validation import check_int
from ..errors import ValidationError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "BenchSuiteResult",
    "history_labels",
    "record_key",
]

#: Current on-disk schema version of ``BENCH_*.json`` files: keyed
#: :class:`BenchRecord` payloads with run/iteration-structured samples,
#: provenance, and an integrity digest.
BENCH_SCHEMA_VERSION = 2

#: Bound on the number of runs a record retains when merged repeatedly,
#: so a long-lived BENCH file tracks a moving window instead of growing
#: without limit.  Oldest runs are dropped first.
DEFAULT_MAX_RUNS = 16


def _canonical_param(value: Any) -> Any:
    """Normalize one parameter value for keys and JSON (plain scalars only)."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise ValidationError(
        f"benchmark params must be scalars (str/int/float/bool), got {type(value).__name__}"
    )


def record_key(name: str, params: Mapping[str, Any]) -> str:
    """The canonical record key: ``name[k1=v1,k2=v2,...]``, params sorted.

    Keys identify a benchmark *configuration*; two suites are compared
    record-by-record on equal keys.
    """
    if not name:
        raise ValidationError("benchmark record name must be non-empty")
    inner = ",".join(
        f"{k}={_canonical_param(params[k])}" for k in sorted(params)
    )
    return f"{name}[{inner}]"


def _as_runs(samples: Any) -> tuple[tuple[float, ...], ...]:
    """Validate run-structured samples: a sequence of non-empty runs."""
    if isinstance(samples, np.ndarray):
        if samples.ndim == 1:
            samples = [samples]
        elif samples.ndim == 2:
            samples = list(samples)
        else:
            raise ValidationError(
                f"samples must be 1-D or 2-D, got shape {samples.shape}"
            )
    runs: list[tuple[float, ...]] = []
    for i, run in enumerate(samples):
        if isinstance(run, (int, float, np.integer, np.floating)):
            raise ValidationError(
                "samples must be a sequence of runs (each a sequence of "
                f"iteration timings); run {i} is a bare scalar"
            )
        values = tuple(float(v) for v in run)
        if not values:
            raise ValidationError(f"run {i} has no samples")
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(f"run {i} contains non-finite samples")
        runs.append(values)
    if not runs:
        raise ValidationError("a benchmark record needs at least one run")
    return tuple(runs)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark configuration's measured samples, run-structured.

    Attributes
    ----------
    name:
        The benchmark identifier (e.g. ``"reduce"`` or ``"exec_campaign"``).
    params:
        The configuration factors (machine, P, message count, kernel, ...)
        — scalar-valued; together with ``name`` they form :attr:`key`.
    samples:
        Measured values as a tuple of runs, each run a tuple of iteration
        timings.  Runs may be ragged (different iteration counts).
    unit:
        The unit every sample is expressed in (default seconds).
    metadata:
        Free-form annotations that do not affect identity (e.g.
        ``{"regime": "dense"}``).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    samples: tuple[tuple[float, ...], ...] = ()
    unit: str = "s"
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "params",
            {str(k): _canonical_param(v) for k, v in dict(self.params).items()},
        )
        object.__setattr__(self, "samples", _as_runs(self.samples))
        if not self.unit:
            raise ValidationError("benchmark record unit must be non-empty")
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def key(self) -> str:
        """Canonical suite key for this record's configuration."""
        return record_key(self.name, self.params)

    @property
    def n_runs(self) -> int:
        """Number of runs (top-level repetitions) recorded."""
        return len(self.samples)

    @property
    def n_samples(self) -> int:
        """Total number of iteration samples across all runs."""
        return sum(len(run) for run in self.samples)

    def run_arrays(self) -> list[np.ndarray]:
        """The samples as a list of per-run float64 arrays."""
        return [np.asarray(run, dtype=np.float64) for run in self.samples]

    def run_means(self) -> np.ndarray:
        """Per-run mean of the iteration samples (the top-level statistics)."""
        return np.array([float(np.mean(run)) for run in self.samples])

    @property
    def mean(self) -> float:
        """Grand mean: the unweighted mean of the run means.

        Weighting runs equally (not samples) keeps the estimator unbiased
        under ragged runs and matches the Kalibera–Jones grand mean.
        """
        return float(self.run_means().mean())

    def with_run(self, samples: Iterable[float], *, max_runs: int = DEFAULT_MAX_RUNS) -> "BenchRecord":
        """A new record with one run appended, keeping at most *max_runs*."""
        check_int(max_runs, "max_runs", minimum=1)
        run = tuple(float(v) for v in samples)
        runs = (self.samples + (run,))[-max_runs:]
        return BenchRecord(
            name=self.name,
            params=self.params,
            samples=runs,
            unit=self.unit,
            metadata=self.metadata,
        )

    def scaled(self, factor: float) -> "BenchRecord":
        """A copy with every sample multiplied by *factor* (fault injection)."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValidationError(f"scale factor must be finite and positive, got {factor}")
        return BenchRecord(
            name=self.name,
            params=self.params,
            samples=tuple(tuple(v * factor for v in run) for run in self.samples),
            unit=self.unit,
            metadata=self.metadata,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation of this record."""
        return {
            "name": self.name,
            "params": dict(self.params),
            "samples": [list(run) for run in self.samples],
            "unit": self.unit,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchRecord":
        """Rebuild a record from its :meth:`to_dict` payload."""
        for required in ("name", "samples"):
            if required not in payload:
                raise ValidationError(f"benchmark record payload missing {required!r}")
        return cls(
            name=str(payload["name"]),
            params=dict(payload.get("params", {})),
            samples=payload["samples"],
            unit=str(payload.get("unit", "s")),
            metadata=dict(payload.get("metadata", {})),
        )


def _suite_digest(records_payload: Mapping[str, Any]) -> str:
    """BLAKE2 digest of the deterministic (schema + records) payload."""
    blob = json.dumps(
        {"schema": BENCH_SCHEMA_VERSION, "records": records_payload},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass(frozen=True)
class BenchSuiteResult:
    """A set of benchmark records plus provenance — one ``BENCH_*.json``.

    The container the regression engine consumes: records keyed by
    configuration, the provenance manifest of the producing run, and an
    integrity digest recomputed on read.
    """

    records: Mapping[str, BenchRecord] = field(default_factory=dict)
    provenance: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        fixed: dict[str, BenchRecord] = {}
        for key, rec in dict(self.records).items():
            if not isinstance(rec, BenchRecord):
                raise ValidationError(
                    f"suite records must be BenchRecord, got {type(rec).__name__}"
                )
            if key != rec.key:
                raise ValidationError(
                    f"suite key {key!r} does not match record key {rec.key!r}"
                )
            fixed[key] = rec
        object.__setattr__(self, "records", fixed)

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def keys(self) -> list[str]:
        """Record keys in sorted (deterministic) order."""
        return sorted(self.records)

    def get(self, key: str) -> BenchRecord | None:
        """The record stored under *key*, or ``None``."""
        return self.records.get(key)

    def merged(
        self,
        *records: BenchRecord,
        append_runs: bool = True,
        max_runs: int = DEFAULT_MAX_RUNS,
    ) -> "BenchSuiteResult":
        """A new suite with *records* merged in.

        With ``append_runs`` (the default) an incoming record's runs are
        appended to any existing record under the same key — the
        continuous-benchmarking accumulation mode — keeping the most
        recent *max_runs* runs.  Otherwise the incoming record replaces
        the stored one.
        """
        out = dict(self.records)
        for rec in records:
            existing = out.get(rec.key)
            if existing is not None and append_runs:
                if existing.unit != rec.unit:
                    raise ValidationError(
                        f"unit mismatch merging {rec.key!r}: "
                        f"{existing.unit!r} vs {rec.unit!r}"
                    )
                merged = existing
                for run in rec.samples:
                    merged = merged.with_run(run, max_runs=max_runs)
                out[rec.key] = merged
            else:
                out[rec.key] = rec
        return BenchSuiteResult(records=out, provenance=self.provenance)

    def with_provenance(self, provenance: Mapping[str, Any] | None) -> "BenchSuiteResult":
        """A copy carrying *provenance* (a ``Provenance.to_dict()`` payload)."""
        return BenchSuiteResult(records=self.records, provenance=provenance)

    @property
    def digest(self) -> str:
        """Integrity digest over the deterministic payload (no provenance)."""
        return _suite_digest({k: self.records[k].to_dict() for k in self.keys()})

    def to_dict(self) -> dict[str, Any]:
        """The full on-disk payload, current schema, digest included."""
        records_payload = {k: self.records[k].to_dict() for k in self.keys()}
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "records": records_payload,
            "digest": _suite_digest(records_payload),
            "provenance": dict(self.provenance) if self.provenance else None,
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], *, verify: bool = True
    ) -> "BenchSuiteResult":
        """Rebuild a suite from its :meth:`to_dict` payload.

        Any schema other than :data:`BENCH_SCHEMA_VERSION` raises
        :class:`~repro.errors.ValidationError`: a reader must never guess
        at data it does not understand.  ``verify`` checks the stored
        integrity digest (when present) and raises on mismatch.
        """
        schema = payload.get("schema", 0)
        if schema != BENCH_SCHEMA_VERSION:
            if isinstance(schema, int) and schema > BENCH_SCHEMA_VERSION:
                hint = "newer than supported ({}); upgrade repro"
            else:
                hint = "older than supported ({}); re-record it"
            raise ValidationError(
                f"benchmark file schema {schema!r} is "
                + hint.format(BENCH_SCHEMA_VERSION)
            )
        records = {
            key: BenchRecord.from_dict(rec)
            for key, rec in payload.get("records", {}).items()
        }
        suite = cls(records=records, provenance=payload.get("provenance"))
        stored = payload.get("digest")
        if verify and stored is not None and stored != suite.digest:
            raise ValidationError(
                "benchmark suite integrity digest mismatch: file is corrupt "
                f"(stored {stored}, recomputed {suite.digest})"
            )
        return suite

    @classmethod
    def load(cls, path: str | Path, *, verify: bool = True) -> "BenchSuiteResult":
        """Read a ``BENCH_*.json`` file (see :meth:`from_dict`)."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValidationError(f"benchmark suite file not found: {path}") from None
        except (json.JSONDecodeError, OSError) as exc:
            raise ValidationError(f"unreadable benchmark suite {path}: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise ValidationError(f"benchmark suite {path} is not a JSON object")
        return cls.from_dict(payload, verify=verify)

    def write(self, path: str | Path) -> Path:
        """Atomically write the suite (tmp file + rename) and return *path*."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_atomic(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )


def history_labels(paths: Sequence[str | Path]) -> list[str]:
    """Short distinguishing labels for a history of suite files.

    Uses bare file names when they are unique across *paths*, falling
    back to full paths otherwise.
    """
    names = [Path(p).name for p in paths]
    if len(set(names)) == len(names):
        return names
    return [str(p) for p in paths]
