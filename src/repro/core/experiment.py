"""Experiment orchestration: design × measurement → analyzed datasets.

Ties the core pieces together: a :class:`~repro.core.design.FactorialDesign`
supplies design points, a user measurement function produces values for each
point, runs execute in randomized order (Section 4.1.1), and results land in
per-point :class:`~repro.core.measurement.MeasurementSet` objects together
with the environment description — everything a Rule 9-compliant report
needs, in one object.

Execution goes through the :mod:`repro.exec` engine: pass ``executor=`` to
fan replications out over worker processes, ``cache=`` to reuse previously
measured points, and ``hooks=`` to observe progress.  Tasks are seeded
deterministically from ``Experiment.seed`` via
:meth:`numpy.random.SeedSequence.spawn` in *canonical* design order, so the
same experiment produces bit-identical datasets under any executor.  A
measurement function may accept the derived generator as a third argument
(``measure(point, rep, rng)``); a two-argument ``measure(point, rep)``
is the other supported calling convention, for measurements that draw
no random numbers.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Any, Callable, Mapping

import numpy as np

from ..errors import ExecutionError, ReproError, ValidationError
from ..exec import ExecHooks, Executor, ResultCache, SerialExecutor
from ..exec.engine import (
    TaskResult,
    make_tasks,
    point_values,
    run_measurement_tasks,
)
from ..obs import Provenance, Tracer
from ..simsys.schedules import KERNEL_VERSION
from .design import FactorialDesign
from .environment import EnvironmentSpec
from .measurement import MeasurementSet

__all__ = ["Experiment", "ExperimentResult", "FailureEnvelope", "derive_envelope"]

PointKey = tuple[tuple[str, Any], ...]


def _point_key(point: Mapping[str, Any]) -> PointKey:
    """Canonical hashable key of a design point (replication stripped).

    Factor values must be hashable (they become dict keys downstream);
    an unhashable value is reported early, with the offending factor
    named, instead of surfacing as a bare ``TypeError`` deep in the
    machinery.  Sorting is by factor *name* only, so mixed-type values
    (say ``p=4`` next to ``placement="packed"``) never get compared.
    """
    items = []
    for name, value in point.items():
        if name == "__rep__":
            continue
        try:
            hash(value)
        except TypeError as exc:
            raise ValidationError(
                f"factor {name!r} has unhashable value {value!r} "
                f"({type(value).__name__}); design-point factor values must "
                "be hashable"
            ) from exc
        items.append((str(name), value))
    return tuple(sorted(items, key=lambda kv: kv[0]))


@dataclass(frozen=True)
class FailureEnvelope:
    """What happened to one design point, resilience-wise.

    Every point of an experiment run gets an envelope; the interesting
    states are the non-``ok`` ones (see :mod:`repro.chaos` and
    docs/ROBUSTNESS.md):

    ``ok``
        every replication produced values on the first attempt;
    ``recovered``
        full data, but only after retries or cache re-measurement —
        values are still bit-identical to a fault-free run;
    ``degraded``
        at least one replication failed permanently, but the point kept
        some values (wider CIs, disclosed in metadata);
    ``failed``
        no replication survived; with ``on_failure="annotate"`` the point
        is dropped from ``datasets`` and annotated here instead of
        aborting the campaign.
    """

    point: PointKey
    state: str
    replications: int
    reps_ok: int
    failed_reps: tuple[tuple[int, str], ...] = ()
    retried_attempts: int = 0
    cached_reps: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (for reports and provenance)."""
        return {
            "point": {k: v for k, v in self.point},
            "state": self.state,
            "replications": self.replications,
            "reps_ok": self.reps_ok,
            "failed_reps": [
                {"rep": rep, "error": err} for rep, err in self.failed_reps
            ],
            "retried_attempts": self.retried_attempts,
            "cached_reps": self.cached_reps,
        }


def derive_envelope(
    point: PointKey,
    *,
    replications: int,
    failed_reps: tuple[tuple[int, str], ...] = (),
    cached_reps: int = 0,
    total_attempts: int = 0,
    has_values: bool = True,
) -> FailureEnvelope:
    """Classify one design point's resilience outcome.

    The pure core of :meth:`Experiment.run`'s envelope derivation (and
    the property-tested one, see ``tests/exec/test_exec_properties.py``):
    given what the engine reported for a point — which replications
    failed permanently, how many were served from cache, and the total
    attempt count across all its tasks — produce the
    :class:`FailureEnvelope`.  Every executed (non-cached) replication
    spends one non-retry attempt; anything beyond that was a retry and
    makes a fully-successful point ``recovered`` rather than ``ok``.
    """
    fails = tuple(failed_reps)
    executed = replications - cached_reps
    extra_attempts = max(total_attempts - executed, 0)
    if not has_values:
        state = "failed"
    elif fails:
        state = "degraded"
    elif extra_attempts > 0:
        state = "recovered"
    else:
        state = "ok"
    return FailureEnvelope(
        point=point,
        state=state,
        replications=replications,
        reps_ok=replications - len(fails),
        failed_reps=fails,
        retried_attempts=extra_attempts,
        cached_reps=cached_reps,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """All measurements of one experiment, keyed by design point."""

    name: str
    unit: str
    environment: EnvironmentSpec | None
    datasets: dict[PointKey, MeasurementSet]
    run_order: tuple[PointKey, ...]
    #: Per-point resilience states; empty only for legacy constructions.
    envelopes: dict[PointKey, FailureEnvelope] = field(default_factory=dict)

    def points(self) -> list[dict[str, Any]]:
        """The measured design points as dicts (canonical order)."""
        return [dict(k) for k in self.datasets]

    def get(self, **factors: Any) -> MeasurementSet:
        """The dataset for the design point with the given factor values."""
        key = _point_key(factors)
        if key not in self.datasets:
            raise ValidationError(
                f"no dataset for {dict(key)!r}; have {[dict(k) for k in self.datasets]}"
            )
        return self.datasets[key]

    def series(
        self, factor: str, summary: Callable[[np.ndarray], float] = np.median
    ) -> tuple[list[Any], list[float]]:
        """(levels, summarized values) along one factor.

        Only valid when *factor* is the single varying factor; raises
        otherwise so nobody accidentally averages over hidden factors.
        """
        keys = list(self.datasets)
        varying = {name for key in keys for name, _ in key}
        if varying != {factor}:
            raise ValidationError(
                f"series() needs {factor!r} to be the only factor; "
                f"design has {sorted(varying)}"
            )
        pairs = sorted((dict(k)[factor], v) for k, v in self.datasets.items())
        levels = [p[0] for p in pairs]
        values = [float(summary(p[1].values)) for p in pairs]
        return levels, values

    def describe(self) -> str:
        """Readable multi-dataset summary with the environment checklist."""
        lines = [f"experiment {self.name!r}: {len(self.datasets)} design point(s)"]
        for key, ms in self.datasets.items():
            s = ms.summary()
            lines.append(
                f"  {dict(key)!r}: n={ms.n} median={s.median:.6g} {self.unit} "
                f"(CoV {s.cov:.3f})"
            )
        if self.environment is not None:
            done, total = self.environment.completeness()
            lines.append(f"environment documented: {done}/{total} categories")
        return "\n".join(lines)


@dataclass
class Experiment:
    """A runnable experiment definition.

    Parameters
    ----------
    name:
        Experiment identifier (also the cache's workload id).
    design:
        The factorial design (factors, levels, replications).
    measure:
        ``measure(point, rep) -> float | ndarray`` producing one or more
        measurement values for a design point, or ``measure(point, rep,
        rng)`` to receive the task's deterministically derived
        :class:`numpy.random.Generator` as well.  Must be picklable
        (module-level, not a lambda) to run under a
        :class:`~repro.exec.ProcessExecutor`.
    unit:
        Unit of the returned values.
    environment:
        Setup documentation attached to the result (Rule 9).
    order_seed:
        Seed of the randomized run order.
    seed:
        Master seed of the per-task RNG derivation (defaults to
        ``order_seed`` so a single seed drives the whole experiment).
    executor:
        Default execution engine for :meth:`run`; ``None`` means a
        fail-fast :class:`~repro.exec.SerialExecutor`.
    """

    name: str
    design: FactorialDesign
    measure: Callable[..., float | np.ndarray]
    unit: str = "s"
    environment: EnvironmentSpec | None = None
    order_seed: int = 0
    seed: int | None = None
    executor: Executor | None = None

    def _tasks(self):
        """Seeded tasks in canonical design order (the seeding contract)."""
        master = self.order_seed if self.seed is None else self.seed
        canonical = [
            (point, rep)
            for point in self.design.points()
            for rep in range(self.design.replications)
        ]
        # simsys_kernel keys the RNG stream-consumption layout of the
        # simulated collectives into every task fingerprint, so cached
        # results from an older kernel layout are never reused.
        methodology = {
            "design": self.design.describe(),
            "unit": self.unit,
            "simsys_kernel": KERNEL_VERSION,
        }
        return (
            make_tasks(
                self.name,
                canonical,
                self.measure,
                master_seed=master,
                methodology=methodology,
            ),
            {
                (_point_key(point), rep): i
                for i, (point, rep) in enumerate(canonical)
            },
        )

    def run(
        self,
        *,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        hooks: ExecHooks | None = None,
        tracer: Tracer | None = None,
        on_failure: str = "raise",
    ) -> ExperimentResult:
        """Execute all runs and collect datasets (randomized run order).

        Measurement happens through the execution engine; values are
        assembled into per-point datasets following the randomized run
        order, exactly as the historical serial loop did, so results are
        identical whichever executor did the work.  A task that fails
        permanently is recorded in its dataset's metadata.  Every point
        gets a :class:`FailureEnvelope` (ok / recovered / degraded /
        failed) in ``result.envelopes``; what happens to a point left
        with *no* values depends on ``on_failure``:

        ``"raise"`` (default)
            abort with :class:`ExecutionError` (or the original library
            error when there is one) — the fail-fast contract;
        ``"annotate"``
            complete the campaign anyway: the point is dropped from
            ``datasets`` and its envelope records the failure — the
            graceful-degradation contract used by :mod:`repro.chaos`.

        Every dataset's metadata carries a :class:`~repro.obs.Provenance`
        manifest (environment, package versions, master seed, methodology,
        exec/cache statistics), and passing ``tracer=`` records an
        ``experiment`` span with per-design-point child spans on top of
        the engine's ``measurement-batch`` spans.
        """
        if on_failure not in ("raise", "annotate"):
            raise ValidationError(
                f"on_failure must be 'raise' or 'annotate', got {on_failure!r}"
            )
        executor = executor or self.executor or SerialExecutor(retries=0)
        hooks = hooks if hooks is not None else ExecHooks()
        master = self.order_seed if self.seed is None else self.seed
        provenance = Provenance.capture(
            environment=self.environment,
            master_seed=master,
            methodology={
                "design": self.design.describe(),
                "unit": self.unit,
                "simsys_kernel": KERNEL_VERSION,
            },
            trace_id=tracer.trace_id if tracer is not None else None,
        )
        tasks, index_of = self._tasks()
        span_cm = (
            tracer.span("experiment", label=self.name, tasks=len(tasks))
            if tracer is not None
            else nullcontext(None)
        )
        with span_cm as exp_span_id:
            point_span_ids: dict[PointKey, str] = {}
            if tracer is not None:
                # Reserve one design-point span id per point up front so the
                # workers' measurement-batch spans nest under it; the span
                # itself is emitted after the fact with the summed wall time.
                for task in tasks:
                    point_span_ids.setdefault(task.point, tracer.new_span_id())
                tasks = [
                    _dc_replace(t, trace_ctx=(tracer.trace_id, point_span_ids[t.point]))
                    for t in tasks
                ]
            results = run_measurement_tasks(
                tasks,
                executor=executor,
                cache=cache,
                hooks=hooks,
                tracer=tracer,
                provenance=provenance,
            )
            if tracer is not None:
                wall_by_point: dict[PointKey, float] = {}
                failed_by_point: dict[PointKey, int] = {}
                for res in results:
                    wall_by_point[res.task.point] = (
                        wall_by_point.get(res.task.point, 0.0) + res.wall_time
                    )
                    if not res.ok:
                        failed_by_point[res.task.point] = (
                            failed_by_point.get(res.task.point, 0) + 1
                        )
                for point_key, wall in wall_by_point.items():
                    attrs: dict[str, Any] = {"point": repr(dict(point_key))}
                    if failed_by_point.get(point_key):
                        attrs["failed_reps"] = failed_by_point[point_key]
                    tracer.emit_logical(
                        "design-point",
                        wall_s=wall,
                        span_id=point_span_ids[point_key],
                        parent_id=exp_span_id,
                        **attrs,
                    )

        point_results: dict[PointKey, list[TaskResult]] = {}
        failures: dict[PointKey, list[tuple[int, str]]] = {}
        cached_counts: dict[PointKey, int] = {}
        attempts: dict[PointKey, int] = {}
        order: list[PointKey] = []
        for run in self.design.run_order(self.order_seed):
            rep = run["__rep__"]
            point = {k: v for k, v in run.items() if k != "__rep__"}
            key = _point_key(point)
            res = results[index_of[(key, rep)]]
            order.append(key)
            point_results.setdefault(key, []).append(res)
            if not res.ok:
                failures.setdefault(key, []).append((rep, res.error or "failed"))
            if res.cached:
                cached_counts[key] = cached_counts.get(key, 0) + 1
            attempts[key] = attempts.get(key, 0) + res.attempts
        buckets = {key: point_values(rs) for key, rs in point_results.items()}

        if on_failure == "raise":
            for key, fails in failures.items():
                if not buckets[key].size:
                    # Every replication of this point failed: surface the
                    # original error when the engine preserved one.
                    for res in results:
                        if res.task.point == key and isinstance(res.exception, ReproError):
                            raise res.exception
                    raise ExecutionError(
                        f"design point {dict(key)!r} produced no values; "
                        f"failures: {fails}"
                    )

        reps = self.design.replications
        envelopes: dict[PointKey, FailureEnvelope] = {}
        for key, vals in buckets.items():
            envelopes[key] = derive_envelope(
                key,
                replications=reps,
                failed_reps=tuple(failures.get(key, ())),
                cached_reps=cached_counts.get(key, 0),
                total_attempts=attempts.get(key, 0),
                has_values=vals.size > 0,
            )
        degradation = {
            s: sum(1 for e in envelopes.values() if e.state == s)
            for s in ("recovered", "degraded", "failed")
        }
        if hooks.metrics is not None:
            for state, count in degradation.items():
                if count:
                    hooks.metrics.counter(
                        f"repro_chaos_points_{state}_total"
                    ).inc(count)

        cache_stats: dict[str, Any] = {}
        if cache is not None:
            cache_stats = {
                "entries": len(cache),
                "hits": hooks.cached,
                "path": str(cache.path),
            }
            if cache.corrupt_entries:
                cache_stats["corrupt_entries"] = cache.corrupt_entries
        exec_stats = hooks.snapshot()
        if any(degradation.values()):
            exec_stats["degradation"] = degradation
        provenance = _dc_replace(
            provenance, exec_stats=exec_stats, cache_stats=cache_stats
        )

        datasets = {}
        for key, vals in buckets.items():
            if not vals.size:
                # on_failure="annotate": the point is represented only by
                # its (failed) envelope — an empty dataset would poison
                # the statistics layer.
                continue
            md: dict[str, Any] = {
                "design": self.design.describe(),
                "provenance": provenance.to_dict(),
            }
            envelope = envelopes[key]
            exec_md: dict[str, Any] = {}
            if envelope.cached_reps:
                exec_md["cached_tasks"] = envelope.cached_reps
            if envelope.failed_reps:
                exec_md["failed_reps"] = [
                    {"rep": rep, "error": err} for rep, err in envelope.failed_reps
                ]
            if envelope.retried_attempts > 0:
                exec_md["retried_attempts"] = envelope.retried_attempts
            if envelope.state != "ok":
                exec_md["envelope"] = envelope.state
            if exec_md:
                md["exec"] = exec_md
            datasets[key] = MeasurementSet(
                values=vals,
                unit=self.unit,
                name=f"{self.name} @ {dict(key)!r}",
                metadata=md,
            )
        return ExperimentResult(
            name=self.name,
            unit=self.unit,
            environment=self.environment,
            datasets=datasets,
            run_order=tuple(order),
            envelopes=envelopes,
        )
