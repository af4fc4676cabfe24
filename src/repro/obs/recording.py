"""The one way a task's telemetry gets home: the recording context.

Code that runs inside a task attempt — the ``measurement-batch`` span
opened with :meth:`Recording.span`, the simulator's kernel metrics —
records into the active :class:`Recording` and nowhere else; with none
active it records nothing.  Every executor wraps every attempt in one:

* :class:`~repro.exec.SerialExecutor` activates the run's own recording:
  spans go straight into the run's :class:`~repro.obs.Tracer`, whatever
  its sink, metric observations straight into the run's registry
  (``hooks.metrics``);
* a process or dist worker (:func:`repro.exec.dist._execute_payload`)
  activates a fresh recording without a tracer, which *collects* the
  attempt's spans and, when the run has a registry, all of its metric
  observations (counters and histogram buckets, sum and count).
  :meth:`Recording.export` puts them in the result frame, and the
  coordinator :meth:`~Recording.merge`\\ s them into the run's own
  recording — its tracer and registry — for the attempts its ledger
  charges.

So a serial, process or dist run reports the same spans and the same
metrics for the same work.  Direct use, outside any executor::

    registry = MetricsRegistry()
    with Recording(registry).active():
        SimComm(machine, 64).reduce_root_times(8, 100)
    registry.get("repro_simsys_kernel_ops_total").value  # 1.0
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, ContextManager, Iterator, Mapping

from .tracing import Span, Tracer

__all__ = ["Recording", "current_recording"]


class Recording:
    """Where the telemetry of the task attempt running now goes.

    Parameters
    ----------
    metrics:
        The :class:`~repro.obs.MetricsRegistry` receiving metric
        observations, or None to record none.
    tracer:
        The run's :class:`~repro.obs.Tracer`, receiving every span, or
        None to collect spans in :attr:`spans` for :meth:`export` (a
        worker's recording).
    """

    def __init__(self, metrics: Any = None, tracer: Tracer | None = None) -> None:
        self.metrics = metrics
        self.tracer = tracer
        #: Finished spans as dicts, collected when there is no tracer.
        self.spans: list[dict[str, Any]] = []

    def span(
        self, name: str, trace_id: str, parent_id: str | None, **attrs: Any
    ) -> ContextManager[str]:
        """Open a span of the running attempt, under *parent_id* in trace
        *trace_id* — the ``trace_ctx`` pair a task carries across the
        process boundary.

        Timed by :meth:`Tracer.span` like every live span; it finishes
        into :meth:`emit`.
        """
        return Tracer(self, trace_id=trace_id).span(name, parent_id=parent_id, **attrs)

    def emit(self, span: Span) -> None:
        """Record one finished span: into the tracer, else collect it."""
        if self.tracer is None:
            self.spans.append(span.to_dict())
        else:
            self.tracer._emit(span)

    def export(self) -> dict[str, Any]:
        """The collected spans and metric observations as picklable data."""
        return {
            "spans": self.spans,
            "metrics": {} if self.metrics is None else self.metrics.observations(),
        }

    def merge(self, exported: Mapping[str, Any]) -> None:
        """Record what another recording collected (see :meth:`export`)."""
        for span in exported.get("spans") or ():
            self.emit(Span.from_dict(span))
        if self.metrics is not None:
            self.metrics.merge(exported.get("metrics") or {})

    @contextmanager
    def active(self) -> Iterator["Recording"]:
        """Make this the recording of the current context for a block."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)


_ACTIVE: ContextVar[Recording | None] = ContextVar("repro_recording", default=None)


def current_recording() -> Recording | None:
    """The active :class:`Recording`, or None outside any task attempt."""
    return _ACTIVE.get()
