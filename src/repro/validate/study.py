"""Monte-Carlo calibration studies: coverage/power validation at scale.

A :class:`CalibrationStudy` treats the statistics layer as a system
under test.  For every (procedure, generator) cell of a
:class:`CalibrationProfile`, it runs thousands of Bernoulli trials
(:mod:`repro.validate.procedures`) against known ground truth
(:mod:`repro.validate.generators`), fans the batches out through the
:mod:`repro.exec` engine — deterministic SeedSequence spawning, result
caching, ExecHooks metrics — and compares each cell's empirical rate
against its nominal value with a 99% Wilson binomial interval.

The verdict policy (documented in ``docs/CALIBRATION.md``): a cell is
**ok** when its Wilson interval overlaps the cell's tolerance band.  The
band defaults to ``nominal ± tolerance``; combinations with *known,
documented* miscalibration (the t-interval on heavy-tailed data, the
post-stopping coverage of sequential rules) carry explicit wider bands
from :data:`KNOWN_LIMITATIONS` so the harness stays an honest gate: a
regression beyond the documented envelope still flags.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace as _dc_replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from .._validation import check_int, check_prob
from ..errors import ExecutionError, ValidationError
from ..exec import ExecHooks, Executor, ResultCache, make_tasks, run_measurement_tasks
from ..obs import Provenance
from .generators import GENERATORS, get_generator
from .procedures import CellParams, PROCEDURES, get_procedure

__all__ = [
    "VALIDATE_VERSION",
    "KNOWN_LIMITATIONS",
    "CalibrationProfile",
    "PROFILES",
    "get_profile",
    "CellResult",
    "CalibrationReport",
    "CalibrationStudy",
    "wilson_interval",
]

#: Methodology version of the calibration harness.  Part of every task
#: fingerprint, so cached batches from an older trial layout never mix
#: into a newer study.  v2: multi-level generators + Kalibera–Jones
#: ratio-CI cells (runs/iters joined the task point layout).
VALIDATE_VERSION = 2

#: Confidence level of the binomial interval around each empirical rate.
BINOMIAL_CONFIDENCE = 0.99

#: Documented miscalibrations: (procedure, generator) -> (band_lo, band_hi,
#: note).  These bands replace the default ``nominal ± tolerance`` and are
#: the *expected envelope*, not an excuse — a cell drifting outside even
#: this band still flags.  Values were measured with the ``full`` profile
#: (4000 trials/cell) and given ~2 standard-error margin; the rationale
#: for each lives in docs/CALIBRATION.md.
KNOWN_LIMITATIONS: dict[tuple[str, str], tuple[float, float, str]] = {
    # The t-interval assumes near-normal data; on skewed/heavy-tailed
    # distributions it undercovers at practical n (Kalibera & Jones).
    ("mean_ci", "lognormal"): (0.88, 0.95, "t-interval undercovers on skewed data"),
    ("mean_ci", "exponential"): (0.90, 0.96, "t-interval undercovers on skewed data"),
    ("mean_ci", "pareto"): (0.80, 0.92, "t-interval undercovers on heavy tails"),
    ("mean_ci", "simsys_lognormal"): (0.86, 0.94, "t-interval undercovers on skewed data"),
    ("mean_ci", "simsys_mixture"): (0.78, 0.94, "rare-spike mixture badly undercovers the mean at n~30"),
    # The bootstrap inherits the same small-n skewness problem.
    ("bootstrap_percentile", "lognormal"): (0.85, 0.94, "bootstrap undercovers on skewed data"),
    ("bootstrap_percentile", "exponential"): (0.88, 0.95, "bootstrap undercovers on skewed data"),
    ("bootstrap_percentile", "pareto"): (0.78, 0.90, "bootstrap undercovers on heavy tails"),
    ("bootstrap_percentile", "simsys_lognormal"): (0.83, 0.93, "bootstrap undercovers on skewed data"),
    ("bootstrap_percentile", "simsys_mixture"): (0.76, 0.94, "rare-spike mixture badly undercovers the mean at n~30"),
    ("bootstrap_bca", "lognormal"): (0.86, 0.95, "BCa improves but does not fix skew at n~30"),
    ("bootstrap_bca", "exponential"): (0.88, 0.96, "BCa improves but does not fix skew at n~30"),
    ("bootstrap_bca", "pareto"): (0.79, 0.91, "BCa cannot repair heavy tails at small n"),
    ("bootstrap_bca", "simsys_lognormal"): (0.84, 0.94, "BCa improves but does not fix skew"),
    ("bootstrap_bca", "simsys_mixture"): (0.77, 0.95, "rare-spike mixture badly undercovers the mean at n~30"),
    # Planning n from a noisy pilot inherits the mean-CI's skew problem.
    ("samplesize_plan", "pareto"): (0.82, 0.95, "planned-n CI still heavy-tail limited"),
    ("samplesize_plan", "lognormal"): (0.89, 0.97, "planned-n CI mildly skew limited"),
    ("samplesize_plan", "simsys_lognormal"): (0.88, 0.97, "planned-n CI mildly skew limited"),
    # Optional stopping biases the final interval's coverage downward.
    ("stopping_rule", "normal"): (0.88, 0.97, "optional stopping biases coverage down"),
    ("stopping_rule", "lognormal"): (0.85, 0.96, "optional stopping + skew"),
    ("stopping_rule", "exponential"): (0.86, 0.96, "optional stopping + skew"),
    ("stopping_rule", "pareto"): (0.78, 0.93, "optional stopping + heavy tails"),
    ("stopping_rule", "simsys_lognormal"): (0.83, 0.95, "optional stopping + skew"),
    ("stopping_rule", "simsys_mixture"): (0.86, 0.96, "optional stopping + mixture"),
    # The F-test's null distribution is moment-sensitive.
    ("anova", "pareto"): (0.005, 0.05, "F-test conservative/erratic on heavy tails"),
    ("t_test", "pareto"): (0.01, 0.06, "t-test level drifts on heavy tails"),
    # The run-level percentile bootstrap resamples only ~10 run means, and
    # percentile intervals are known to undercover at such small resample
    # bases (measured ~0.92 at nominal 0.95); the asymptotic Fieller CI
    # needs no band — it calibrates cleanly on the same cells.
    ("kj_ratio_bootstrap", "multilevel_normal"): (0.88, 0.96, "percentile bootstrap undercovers at r~10 runs"),
    ("kj_ratio_bootstrap", "multilevel_skew"): (0.88, 0.96, "percentile bootstrap undercovers at r~10 runs"),
}


@dataclass(frozen=True)
class CalibrationProfile:
    """How much Monte-Carlo effort a study spends, and its gate widths.

    ``trials`` is the total replication count per cell, split over
    ``batches`` execution-engine tasks.  ``tolerance`` widens the default
    acceptance band around coverage/power nominals;
    ``tolerance_type1`` does the same for Type-I-error nominals (a
    different scale: 0.05 vs 0.95).  ``procedures``/``generators``
    restrict the cell matrix (empty tuple = all registered).
    """

    name: str
    trials: int = 240
    batches: int = 4
    n: int = 30
    n_boot: int = 300
    confidence: float = 0.95
    alpha: float = 0.05
    q: float = 0.75
    effect: float = 1.0
    relative_error: float = 0.15
    runs: int = 10
    iters: int = 10
    tolerance: float = 0.035
    tolerance_type1: float = 0.025
    procedures: tuple[str, ...] = ()
    generators: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_int(self.trials, "trials", minimum=1)
        check_int(self.batches, "batches", minimum=1)
        check_int(self.n, "n", minimum=2)
        check_int(self.n_boot, "n_boot", minimum=10)
        check_int(self.runs, "runs", minimum=2)
        check_int(self.iters, "iters", minimum=1)
        check_prob(self.confidence, "confidence")
        check_prob(self.alpha, "alpha")
        check_prob(self.q, "q")
        if self.batches > self.trials:
            raise ValidationError(
                f"batches ({self.batches}) cannot exceed trials ({self.trials})"
            )
        for proc in self.procedures:
            get_procedure(proc)
        for gen in self.generators:
            get_generator(gen)

    @property
    def procedure_names(self) -> tuple[str, ...]:
        return self.procedures or tuple(PROCEDURES)

    @property
    def generator_names(self) -> tuple[str, ...]:
        return self.generators or tuple(GENERATORS)

    def params(self) -> CellParams:
        """The per-trial knobs this profile prescribes."""
        return CellParams(
            n=self.n,
            confidence=self.confidence,
            alpha=self.alpha,
            q=self.q,
            effect=self.effect,
            relative_error=self.relative_error,
            n_boot=self.n_boot,
            runs=self.runs,
            iters=self.iters,
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "procedures": list(self.procedure_names),
            "generators": list(self.generator_names),
        }


#: Shipped effort profiles.  ``smoke`` is the CI gate (< 60 s serially);
#: ``full`` is the pre-release deep check; ``micro`` exists for tests and
#: development only — its bands are too loose to certify anything.
PROFILES: dict[str, CalibrationProfile] = {
    "smoke": CalibrationProfile(name="smoke"),
    "full": CalibrationProfile(
        name="full",
        trials=4000,
        batches=40,
        n=50,
        n_boot=1000,
        tolerance=0.02,
        tolerance_type1=0.015,
    ),
    "micro": CalibrationProfile(
        name="micro",
        trials=40,
        batches=2,
        n_boot=120,
        tolerance=0.25,
        tolerance_type1=0.2,
    ),
}


def get_profile(name: str) -> CalibrationProfile:
    """Look up a shipped profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValidationError(
            f"unknown profile {name!r}; have {sorted(PROFILES)}"
        ) from None


def wilson_interval(
    successes: int, trials: int, confidence: float = BINOMIAL_CONFIDENCE
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval because it behaves at rates near 0
    and 1 — exactly where Type-I error (0.05) and coverage (0.95) live.
    """
    check_int(trials, "trials", minimum=1)
    successes = check_int(successes, "successes", minimum=0)
    if successes > trials:
        raise ValidationError(f"successes ({successes}) exceed trials ({trials})")
    check_prob(confidence, "confidence")
    from scipy import stats as _sps

    z = float(_sps.norm.ppf(0.5 + confidence / 2.0))
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    spread = (z / denom) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)
    )
    return max(0.0, center - spread), min(1.0, center + spread)


@dataclass(frozen=True)
class CellResult:
    """The calibration verdict for one (procedure, generator) cell."""

    procedure: str
    generator: str
    kind: str
    metric: str
    nominal: float
    band_low: float
    band_high: float
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float
    ok: bool
    exact_truth: bool
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellResult":
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class CalibrationReport:
    """Machine-readable outcome of one calibration study.

    Everything except ``provenance`` is a pure function of
    ``(profile, master_seed)`` — bit-identical across executors and
    worker counts — and :attr:`digest` fingerprints exactly that
    deterministic payload, so two reports can be compared by digest even
    when their provenance timestamps differ.
    """

    profile: dict[str, Any]
    master_seed: int
    cells: tuple[CellResult, ...]
    provenance: dict[str, Any] | None = None

    @property
    def flagged(self) -> tuple[CellResult, ...]:
        """Cells whose empirical rate fell outside the tolerance band."""
        return tuple(c for c in self.cells if not c.ok)

    @property
    def all_ok(self) -> bool:
        return not self.flagged

    def summary(self) -> dict[str, Any]:
        return {
            "cells": len(self.cells),
            "flagged": len(self.flagged),
            "trials_total": sum(c.trials for c in self.cells),
            "procedures": sorted({c.procedure for c in self.cells}),
            "generators": sorted({c.generator for c in self.cells}),
        }

    def _deterministic_payload(self) -> dict[str, Any]:
        return {
            "validate_version": VALIDATE_VERSION,
            "profile": self.profile,
            "master_seed": self.master_seed,
            "summary": self.summary(),
            "cells": [c.to_dict() for c in self.cells],
        }

    @property
    def digest(self) -> str:
        """BLAKE2 digest of the deterministic payload (no provenance)."""
        blob = json.dumps(
            self._deterministic_payload(), sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        payload = self._deterministic_payload()
        payload["digest"] = self.digest
        payload["provenance"] = self.provenance
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CalibrationReport":
        if "cells" not in payload:
            raise ValidationError("calibration report payload missing cells")
        return cls(
            profile=dict(payload.get("profile", {})),
            master_seed=int(payload.get("master_seed", 0)),
            cells=tuple(CellResult.from_dict(c) for c in payload["cells"]),
            provenance=payload.get("provenance"),
        )

    def write(self, directory: str | Path) -> Path:
        """Write ``calibration_report.json`` into *directory*."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "calibration_report.json"
        path.write_text(self.to_json() + "\n")
        return path


def _cell_band(
    procedure_name: str,
    generator_name: str,
    kind: str,
    nominal: float,
    profile: CalibrationProfile,
) -> tuple[float, float, str]:
    """(band_low, band_high, note) for one cell under *profile*."""
    documented = KNOWN_LIMITATIONS.get((procedure_name, generator_name))
    if documented is not None:
        lo, hi, note = documented
        return lo, hi, note
    tol = profile.tolerance_type1 if kind == "type1" else profile.tolerance
    return max(0.0, nominal - tol), min(1.0, nominal + tol), ""


class CalibrationStudy:
    """Run the calibration matrix through the execution engine.

    Tasks are enumerated in canonical (procedure, generator, batch)
    order, so seed derivation — and therefore every trial — is a pure
    function of the master seed, independent of executor choice, worker
    count, and cache state.
    """

    WORKLOAD = "stats-calibration"

    def __init__(self, profile: CalibrationProfile, master_seed: int = 0) -> None:
        if not isinstance(profile, CalibrationProfile):
            raise ValidationError("profile must be a CalibrationProfile")
        self.profile = profile
        self.master_seed = check_int(master_seed, "master_seed", minimum=0)

    def cells(self) -> list[tuple[str, str]]:
        """The (procedure, generator) matrix, in canonical order."""
        return [
            (proc_name, gen_name)
            for proc_name in self.profile.procedure_names
            for gen_name in self.profile.generator_names
            if PROCEDURES[proc_name].applies_to(gen_name)
        ]

    def _batch_sizes(self) -> list[int]:
        base, extra = divmod(self.profile.trials, self.profile.batches)
        return [base + (1 if i < extra else 0) for i in range(self.profile.batches)]

    def _runs(self) -> list[tuple[dict[str, Any], int]]:
        params = self.profile.params()
        runs: list[tuple[dict[str, Any], int]] = []
        for proc_name, gen_name in self.cells():
            for batch, trials in enumerate(self._batch_sizes()):
                point = {
                    "procedure": proc_name,
                    "generator": gen_name,
                    "trials": trials,
                    "n": params.n,
                    "confidence": params.confidence,
                    "alpha": params.alpha,
                    "q": params.q,
                    "effect": params.effect,
                    "relative_error": params.relative_error,
                    "n_boot": params.n_boot,
                    "stop_cap": params.stop_cap,
                    "plan_cap": params.plan_cap,
                    "runs": params.runs,
                    "iters": params.iters,
                }
                runs.append((point, batch))
        return runs

    def build_tasks(self):
        """The seeded measurement tasks, cache-keyed on the methodology."""
        from .procedures import _calibration_measure

        return make_tasks(
            self.WORKLOAD,
            self._runs(),
            _calibration_measure,
            master_seed=self.master_seed,
            methodology={
                "validate_version": VALIDATE_VERSION,
                "profile": self.profile.name,
            },
        )

    def run(
        self,
        *,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        hooks: ExecHooks | None = None,
        tracer: Any | None = None,
        created_at: str | None = None,
    ) -> CalibrationReport:
        """Execute every cell and assemble the calibration report.

        ``created_at`` overrides the provenance timestamp — the one
        volatile field — so tests can assert whole-file bit-identity
        across executors.  Raises :class:`~repro.errors.ExecutionError`
        if any batch failed permanently: a calibration gate with holes
        certifies nothing.
        """
        hooks = hooks or ExecHooks()
        tasks = self.build_tasks()
        results = run_measurement_tasks(
            tasks, executor=executor, cache=cache, hooks=hooks, tracer=tracer
        )
        failed = [r for r in results if not r.ok]
        if failed:
            detail = "; ".join(
                f"{r.task.label}: {r.error}" for r in failed[:5]
            )
            raise ExecutionError(
                f"{len(failed)} calibration batch(es) failed permanently: {detail}"
            )

        per_cell: dict[tuple[str, str], list] = {}
        for r in results:
            point = dict(r.task.point)
            per_cell.setdefault(
                (str(point["procedure"]), str(point["generator"])), []
            ).append(r.values)

        params = self.profile.params()
        cells: list[CellResult] = []
        for proc_name, gen_name in self.cells():
            procedure = PROCEDURES[proc_name]
            generator = GENERATORS[gen_name]
            batches = per_cell[(proc_name, gen_name)]
            trials = int(sum(v.size for v in batches))
            successes = int(round(sum(float(v.sum()) for v in batches)))
            rate = successes / trials
            ci_low, ci_high = wilson_interval(successes, trials)
            nominal = procedure.nominal(params)
            band_low, band_high, note = _cell_band(
                proc_name, gen_name, procedure.kind, nominal, self.profile
            )
            ok = ci_high >= band_low and ci_low <= band_high
            cells.append(
                CellResult(
                    procedure=proc_name,
                    generator=gen_name,
                    kind=procedure.kind,
                    metric=procedure.metric,
                    nominal=nominal,
                    band_low=band_low,
                    band_high=band_high,
                    trials=trials,
                    successes=successes,
                    rate=rate,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    ok=ok,
                    exact_truth=generator.exact,
                    note=note,
                )
            )

        flagged = sum(1 for c in cells if not c.ok)
        if hooks.metrics is not None:
            registry = hooks.metrics
            registry.counter("repro_validate_trials_total").inc(
                sum(c.trials for c in cells)
            )
            registry.counter("repro_validate_cells_total").inc(len(cells))
            registry.counter("repro_validate_cells_flagged_total").inc(flagged)
            registry.gauge("repro_validate_flagged_ratio").set(
                flagged / len(cells) if cells else 0.0
            )

        cache_stats: dict[str, Any] = {}
        if cache is not None:
            cache_stats = {"path": str(cache.path), "entries": len(cache)}
        provenance = Provenance.capture(
            master_seed=self.master_seed,
            methodology={
                "validate_version": VALIDATE_VERSION,
                "profile": self.profile.name,
                "workload": self.WORKLOAD,
            },
            hooks=hooks,
            cache_stats=cache_stats,
        )
        if created_at is not None:
            provenance = _dc_replace(provenance, created_at=str(created_at))
        return CalibrationReport(
            profile=self.profile.to_dict(),
            master_seed=self.master_seed,
            cells=tuple(cells),
            provenance=provenance.to_dict(),
        )


# Re-exported for dataclass field introspection in profiles.
_ = field
