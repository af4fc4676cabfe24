"""Progress and metrics hooks for the execution engine.

One :class:`ExecHooks` instance rides along a campaign run and counts what
the engine did — submitted, completed, served from cache, retried, failed —
plus per-task wall time, so "how much did the cache save us" and "which
design point is the expensive one" are answerable without instrumenting
user code.  All updates happen in the parent process (the engine reports
events as it harvests results), so no locking is needed.

Attach a :class:`repro.obs.MetricsRegistry` (``ExecHooks(metrics=...)``)
and every counter bump is bridged into the registry's
``repro_tasks_*_total`` counters, the ``repro_task_latency_seconds``
histogram, and the ``repro_cache_hit_ratio`` gauge — exportable as JSON
or Prometheus text.  It is the one registry of the run: the executors
also record the metrics of code running inside each task (the simulator
kernels) into it, whichever process ran the task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["ExecHooks"]


@dataclass
class ExecHooks:
    """Counters and callbacks observing one engine invocation (or several).

    Attributes
    ----------
    submitted:
        Tasks handed to an executor (cache hits are *not* submitted).
    completed:
        Tasks that finished successfully on an executor.
    cached:
        Tasks answered from the result cache without measuring.
    retried:
        Individual retry attempts (a task retried twice counts 2).
    failed:
        Tasks that exhausted their retries and were surfaced as failures.
    task_seconds:
        Wall-clock seconds per task label, parent-side (submit → harvest).
    on_event:
        Optional ``callback(event, label)`` invoked for every counter
        bump, with ``event`` one of ``submitted / completed / cached /
        retried / failed`` — the progress-bar seam.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; when set, every
        event is mirrored into the registry's engine metrics
        (see :data:`repro.obs.METRICS`), and every task attempt records
        its own metric observations there.
    """

    submitted: int = 0
    completed: int = 0
    cached: int = 0
    retried: int = 0
    failed: int = 0
    task_seconds: dict[str, float] = field(default_factory=dict)
    on_event: Callable[[str, str], None] | None = None
    metrics: Any = None

    def record(self, event: str, label: str = "", seconds: float | None = None) -> None:
        """Bump the counter for *event* and note wall time when given."""
        if event not in ("submitted", "completed", "cached", "retried", "failed"):
            raise ValueError(f"unknown hook event {event!r}")
        setattr(self, event, getattr(self, event) + 1)
        if seconds is not None and label:
            self.task_seconds[label] = self.task_seconds.get(label, 0.0) + float(seconds)
        if self.metrics is not None:
            self.metrics.counter(f"repro_tasks_{event}_total").inc()
            if event == "completed" and seconds is not None:
                self.metrics.histogram("repro_task_latency_seconds").observe(seconds)
            if event in ("submitted", "cached"):
                seen = self.cached + self.submitted
                self.metrics.gauge("repro_cache_hit_ratio").set(
                    self.cached / seen if seen else 0.0
                )
        if self.on_event is not None:
            self.on_event(event, label)

    def snapshot(self) -> dict[str, Any]:
        """The counters as a plain dict (for metadata and reports)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "cached": self.cached,
            "retried": self.retried,
            "failed": self.failed,
        }

    def describe(self) -> str:
        """One-line summary for logs and benchmark reports."""
        total = sum(self.task_seconds.values())
        return (
            f"submitted {self.submitted}, completed {self.completed}, "
            f"cached {self.cached}, retried {self.retried}, "
            f"failed {self.failed} (task wall time {total:.3f} s)"
        )
