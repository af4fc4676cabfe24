"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the library with a single ``except`` clause
while still being able to discriminate finer failure classes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "InsufficientDataError",
    "UnitError",
    "TimerError",
    "DesignError",
    "SimulationError",
    "ExecutionError",
    "IntegrityError",
    "RuleViolation",
    "SurveyError",
    "CoverageWarning",
    "ClockWarning",
    "FaultInjected",
]


class ReproError(Exception):
    """Base class for all exceptions raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, range, or type)."""


class InsufficientDataError(ReproError, ValueError):
    """Too few measurements for the requested statistic.

    The paper's nonparametric confidence intervals, for instance, need
    ``n > 5`` samples (Section 4.2.2); estimators raise this error instead
    of silently returning unreliable values.
    """

    def __init__(self, needed: int, got: int, what: str = "statistic") -> None:
        self.needed = int(needed)
        self.got = int(got)
        self.what = what
        super().__init__(
            f"{what} requires at least {needed} measurements, got {got}"
        )


class UnitError(ReproError, ValueError):
    """Mismatched or unparsable measurement units (Section 2.1.2)."""


class TimerError(ReproError, RuntimeError):
    """A timer could not satisfy precision/overhead requirements."""


class DesignError(ReproError, ValueError):
    """Invalid experimental design (factors, levels, or plan)."""


class SimulationError(ReproError, RuntimeError):
    """The simulated machine was asked to do something unphysical."""


class ExecutionError(ReproError, RuntimeError):
    """A campaign task failed permanently (retries exhausted) or the
    engine was asked to assemble results from a point with no surviving
    measurements."""


class IntegrityError(ReproError, RuntimeError):
    """A recorded file no longer matches the digest recorded when it was
    written: it was edited or damaged in place.  Not a bad argument, so
    not a :class:`ValidationError` — a server answers it with a 500."""


class RuleViolation(ReproError):
    """A reporting rule check failed and strict mode was requested."""

    def __init__(self, rule_id: int, message: str) -> None:
        self.rule_id = int(rule_id)
        super().__init__(f"Rule {rule_id}: {message}")


class SurveyError(ReproError, ValueError):
    """Inconsistent literature-survey data."""


class CoverageWarning(ReproError, UserWarning):
    """A confidence interval cannot achieve the requested coverage.

    Nonparametric rank intervals are built from order statistics; at small
    *n* the construction's ranks fall outside the sample and are clipped
    to the extremes, so the returned interval covers *less* than requested
    (the paper's "n > 5" caveat, Section 4.2.2).  The interval is still
    returned — widest available — but the shortfall must be disclosed.
    """


class ClockWarning(ReproError, UserWarning):
    """A simulated clock read went backwards and was clamped.

    Per-process clock readings must be monotone or negative "durations"
    leak into the statistics layer unflagged (the Section 4.2.1 concern
    behind timer calibration).  A drift/offset discontinuity can make the
    raw reading regress; the clock clamps to the previous reading, counts
    the event (``SimClock.backwards_clamped``), and raises this warning
    once per clock so downstream metadata can disclose the clamp.
    """


class FaultInjected(ReproError, RuntimeError):
    """A deliberate fault planted by :mod:`repro.chaos`.

    Raised inside chaos-wrapped workers to simulate a crash.  Deriving
    from :class:`ReproError` means an escape (fault not recovered within
    the retry budget) surfaces through the normal engine failure path and
    is attributable to the fault plan, not the workload.
    """
