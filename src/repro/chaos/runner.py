"""The chaos gate: run a campaign under faults and prove it degrades well.

:func:`run_chaos` is what ``repro chaos`` executes.  It drives three
phases against one seeded :class:`~repro.chaos.FaultPlan`:

A. **Campaign under task and socket faults.**  A fault-free baseline
   campaign runs first (serial, no retries); then the same campaign runs
   again under a :class:`~repro.chaos.ChaosExecutor` with
   ``on_failure="annotate"``.  The gate demands that every design point
   is *recovered or annotated* (no silently lost points) and that every
   recovered point's values are **bit-identical** to the baseline —
   fault injection must never leak into the measured numbers.

B. **Cache corruption and recovery.**  The campaign re-runs warm against
   a :class:`~repro.chaos.ChaosResultCache` that rots planned entries on
   read.  The gate demands every injected corruption is detected and
   quarantined (never served), and that the re-measured values are again
   bit-identical to the baseline.

C. **Clock discontinuity.**  A measurement loop runs on a simulated
   clock carrying the plan's steps.  The gate demands the monotone-read
   clamp engages (no negative intervals escape), a
   :class:`~repro.errors.ClockWarning` fires, and the clamp count is
   flagged in the dataset's metadata.

Any exception escaping a phase is an *unhandled escape*: it is recorded
in the report and fails the gate.  Everything is deterministic in
``(profile, seed)``, so a red gate reproduces locally with the same
command line.
"""

from __future__ import annotations

import json
import traceback
import warnings as _warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ClockWarning
from ..exec import ExecHooks, ProcessExecutor, SerialExecutor
from .inject import ChaosExecutor, ChaosResultCache, faulty_clock, perturbed_machine
from .plan import FaultPlan, get_profile

__all__ = ["ChaosCheck", "ChaosReport", "run_chaos"]

#: Design of the gate campaign: sizes x 3 replications.  Sized so the
#: default plan seed plants at least one fault of every kind (see
#: tests/chaos/test_runner.py, which pins this).
_SIZES: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
_REPS = 3
_BATCH = 25


class _ChaosMeasure:
    """The gate's workload: simulated reduce on the *perturbed* machine.

    A picklable instance (so it crosses into worker processes) carrying
    the plan: both the baseline and the chaos run measure the machine
    under the plan's noise storms and stragglers, which is what lets the
    gate demand bit-identity — environmental degradation is part of the
    simulated system, while crashes/hangs/corruption must leave no trace
    in the values.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __call__(self, point: dict, rep: int, rng: np.random.Generator) -> Any:
        from ..simsys import SimComm, testbed

        machine = perturbed_machine(testbed(2), self.plan)
        comm = SimComm(
            machine,
            nprocs=8,
            placement="packed",
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        return comm.reduce_root_times(int(point["size"]), int(point["batch"]))


@dataclass(frozen=True)
class ChaosCheck:
    """One verified resilience property."""

    name: str
    ok: bool
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class ChaosReport:
    """Everything ``repro chaos`` learned, JSON-exportable for CI artifacts."""

    profile: str
    plan_seed: int
    disclosure: str
    injected: dict[str, int] = field(default_factory=dict)
    #: Envelope states of the chaos campaign, e.g. {"ok": 6, "recovered": 2}.
    states: dict[str, int] = field(default_factory=dict)
    checks: list[ChaosCheck] = field(default_factory=list)
    #: Tracebacks of exceptions that escaped a phase (must be empty).
    escapes: list[str] = field(default_factory=list)
    envelopes: list[dict[str, Any]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(ChaosCheck(name=name, ok=bool(ok), detail=detail))

    @property
    def ok(self) -> bool:
        """Green iff no escapes and every check passed."""
        return not self.escapes and all(c.ok for c in self.checks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "plan_seed": self.plan_seed,
            "disclosure": self.disclosure,
            "ok": self.ok,
            "injected": dict(self.injected),
            "states": dict(self.states),
            "checks": [c.to_dict() for c in self.checks],
            "escapes": list(self.escapes),
            "envelopes": list(self.envelopes),
        }

    def write(self, out_dir: str | Path) -> Path:
        """Write ``chaos_report.json`` into *out_dir*; returns the path."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "chaos_report.json"
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def describe(self) -> str:
        """Readable verdict, one line per check."""
        lines = [f"chaos gate [{self.profile}] seed={self.plan_seed}: "
                 f"{'OK' if self.ok else 'FAILED'}"]
        lines.append(f"  injected: {self.injected}")
        lines.append(f"  point states: {self.states}")
        for c in self.checks:
            lines.append(f"  [{'pass' if c.ok else 'FAIL'}] {c.name}"
                         + (f" — {c.detail}" if c.detail else ""))
        for esc in self.escapes:
            last = esc.strip().splitlines()[-1]
            lines.append(f"  [ESCAPE] {last}")
        return "\n".join(lines)


def _identical(base, other) -> tuple[bool, str]:
    """Are *other*'s ok or recovered datasets bit-identical to *base*'s?"""
    keys = [
        key
        for key, env in other.envelopes.items()
        if env.state in ("ok", "recovered") and key in other.datasets
    ]
    for key in keys:
        a = base.datasets[key].values
        b = other.datasets[key].values
        if a.shape != b.shape or not np.array_equal(a, b):
            return False, f"values differ at {dict(key)!r}"
    return True, f"{len(keys)} point(s) bit-identical"


def run_chaos(
    profile_name: str = "smoke",
    *,
    out_dir: str | Path,
    seed: int = 0,
    workers: int = 1,
    hooks: ExecHooks | None = None,
    tracer: Any | None = None,
) -> ChaosReport:
    """Run the three-phase chaos gate; never raises for injected faults.

    *out_dir* receives the run's scratch state (fault markers, result
    cache) and is where :meth:`ChaosReport.write` puts the report.  Pass
    ``hooks`` carrying a registry (``ExecHooks(metrics=...)``) to surface
    the ``repro_chaos_*`` counters.  The campaign phases run over a
    :class:`~repro.exec.ProcessExecutor` with *workers* workers when
    *workers* > 1 or when the profile kills worker processes
    (:attr:`~repro.chaos.FaultProfile.kills_workers`), else serially.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = get_profile(profile_name)
    plan = FaultPlan(profile, seed=seed)
    hooks = hooks or ExecHooks()
    report = ChaosReport(
        profile=profile.name, plan_seed=plan.seed, disclosure=plan.describe()
    )

    from ..core import Experiment, Factor, FactorialDesign

    experiment = Experiment(
        name="chaos-smoke",
        design=FactorialDesign(
            (Factor("size", _SIZES), Factor("batch", (_BATCH,))),
            replications=_REPS,
        ),
        measure=_ChaosMeasure(plan),
        unit="s",
        seed=seed,
    )

    made: list[ProcessExecutor] = []

    def count_rot(cache: ChaosResultCache) -> None:
        if hooks.metrics is not None:
            hooks.metrics.counter("repro_chaos_cache_corruptions_injected_total").inc(
                len(cache.injected_corruptions))

    def make_executor() -> Any:
        if workers > 1 or profile.kills_workers:
            made.append(ProcessExecutor(
                max_workers=workers, timeout=profile.hang_s * 10, retries=2
            ))
            return made[-1]
        return SerialExecutor(retries=2)

    try:
        baseline = None
        try:
            # Phase A: task and socket faults under annotate mode.
            baseline = experiment.run(
                executor=SerialExecutor(retries=0), on_failure="raise", tracer=tracer
            )
            chaos_exec = ChaosExecutor(make_executor(), plan, out_dir / "state-a")
            cache = ChaosResultCache(out_dir / "cache", plan)
            chaotic = experiment.run(
                executor=chaos_exec,
                cache=cache,
                hooks=hooks,
                tracer=tracer,
                on_failure="annotate",
            )
            count_rot(cache)
            planted = chaos_exec.injected
            report.injected.update(
                crashes=planted["crash"], hangs=planted["hang"],
                net_kills=planted["kill"], net_partitions=planted["partition"],
                net_slow_links=planted["slow"],
            )
            for envelope in chaotic.envelopes.values():
                report.states[envelope.state] = report.states.get(envelope.state, 0) + 1
                if envelope.state != "ok":
                    report.envelopes.append(envelope.to_dict())
            lost = [
                dict(key)
                for key in baseline.datasets
                if key not in chaotic.datasets and key not in chaotic.envelopes
            ]
            report.check(
                "no unannotated lost design points",
                not lost,
                f"lost without envelope: {lost}" if lost else
                f"{len(chaotic.envelopes)} point(s) enveloped",
            )
            same, detail = _identical(baseline, chaotic)
            report.check("recovered values bit-identical to fault-free run", same, detail)
            report.check(
                "task faults were injected",
                report.injected["crashes"] + report.injected["hangs"] > 0,
                f"{report.injected['crashes']} crash(es), "
                f"{report.injected['hangs']} hang(s)",
            )
            if profile.net_kill_p + profile.net_partition_p + profile.net_slow_p > 0.0:
                net = (planted["kill"], planted["partition"], planted["slow"])
                report.check(
                    "socket faults were injected", sum(net) > 0,
                    "{} kill(s), {} partition(s), {} slow link(s)".format(*net),
                )
        except Exception:  # noqa: BLE001 - the gate's whole point
            report.escapes.append(traceback.format_exc())

        try:
            # Phase B: warm-cache corruption, detection, and re-measurement.
            if baseline is not None:
                cache_b = ChaosResultCache(out_dir / "cache", plan)
                rerun = experiment.run(
                    executor=ChaosExecutor(make_executor(), plan, out_dir / "state-b"),
                    cache=cache_b,
                    hooks=hooks,
                    on_failure="annotate",
                )
                count_rot(cache_b)
                injected = len(cache_b.injected_corruptions)
                report.injected["cache_corruptions"] = injected
                report.check(
                    "cache corruptions were injected",
                    injected > 0,
                    f"{injected} entr(ies) rotted on read",
                )
                report.check(
                    "every corrupt entry detected and quarantined",
                    cache_b.corrupt_entries >= injected,
                    f"detected {cache_b.corrupt_entries} of {injected}",
                )
                same, detail = _identical(baseline, rerun)
                report.check(
                    "re-measured values bit-identical after corruption", same, detail
                )
        except Exception:  # noqa: BLE001
            report.escapes.append(traceback.format_exc())

        try:
            # Phase C: clock discontinuity — clamp, warn, flag.
            _run_clock_phase(plan, report)
        except Exception:  # noqa: BLE001
            report.escapes.append(traceback.format_exc())
    finally:
        # Close listen sockets and reap workers now, not at garbage collection.
        for executor in made:
            executor.close()
    return report


def _run_clock_phase(plan: FaultPlan, report: ChaosReport) -> None:
    """Measure across the plan's clock steps and verify the clamp engages."""
    from ..core import (
        FixedCount,
        MeasurementConfig,
        SimTimer,
        TimerCalibration,
        measure_callable,
    )

    steps = plan.profile.clock_steps
    if not steps:
        report.check("clock discontinuity handled", True, "profile has no steps")
        return
    clock = faulty_clock(plan, base=None)
    # Start just before the first step, advancing less than the largest
    # negative jump per interval, so a read lands inside the regression.
    first_at = steps[0][0]
    timer = SimTimer(clock=clock, true_time=first_at - 5e-3)
    step_dt = 1e-3

    def fn() -> None:
        timer.advance(step_dt)

    config = MeasurementConfig(
        warmup=1,
        stopping=FixedCount(30),
        timer=timer,
        calibration=TimerCalibration(
            timer_name="sim", resolution=1e-6, overhead=0.0, samples=0
        ),
    )
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        ms = measure_callable(fn, name="chaos-clock", config=config)
    warned = any(isinstance(w.message, ClockWarning) for w in caught)
    clamped = int(ms.metadata.get("clock_backwards_clamped", 0))
    report.injected["clock_steps"] = len(steps)
    report.check(
        "backwards clock reads clamped and flagged in metadata",
        clock.backwards_clamped > 0 and clamped > 0,
        f"{clock.backwards_clamped} read(s) clamped, metadata flag {clamped}",
    )
    report.check("ClockWarning raised once", warned,
                 f"{sum(isinstance(w.message, ClockWarning) for w in caught)} warning(s)")
    report.check(
        "no negative intervals escaped the clamp",
        bool(np.all(ms.values >= 0.0)),
        f"min interval {float(ms.values.min()):.3g} s",
    )
