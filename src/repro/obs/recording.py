"""The one way a task's telemetry gets home: the recording context.

Code that runs inside a task attempt — the ``measurement-batch`` span of
:func:`file_span`, the simulator's kernel metrics — records into the
active :class:`Recording` and nowhere else; with none active it records
nothing.  Every executor wraps every attempt in one:

* :class:`~repro.exec.SerialExecutor` activates the run's own recording:
  spans go straight to their JSONL sink, metric observations straight
  into the run's registry (``hooks.metrics``);
* a process or dist worker (:func:`repro.exec.dist._execute_payload`)
  activates a fresh recording that *collects* the attempt's spans and,
  when the run has a registry, all of its metric observations (counters
  and histogram buckets, sum and count).  :meth:`Recording.export` puts
  them in the result frame, and the coordinator :meth:`~Recording.merge`\\ s
  them into the run's own recording for the attempts its ledger charges.

So a serial, process or dist run reports the same spans and the same
metrics for the same work.  Direct use, outside any executor::

    registry = MetricsRegistry()
    with Recording(registry).active():
        SimComm(machine, 64).reduce_root_times(8, 100)
    registry.get("repro_simsys_kernel_ops_total").value  # 1.0
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator, Mapping

from .tracing import JsonlSpanSink, Span, _new_id

__all__ = ["Recording", "current_recording", "file_span"]


class Recording:
    """Where the telemetry of the task attempt running now goes.

    Parameters
    ----------
    metrics:
        The :class:`~repro.obs.MetricsRegistry` receiving metric
        observations, or None to record none.
    collect:
        Keep spans in :attr:`spans` as ``(sink_path, span dict)`` pairs,
        for :meth:`export`, instead of appending each to its JSONL sink.
    """

    def __init__(self, metrics: Any = None, *, collect: bool = False) -> None:
        self.metrics = metrics
        self.spans: list[tuple[str, dict[str, Any]]] | None = [] if collect else None

    def emit(self, sink_path: str | Path, span: Span) -> None:
        """Record one finished span bound for the sink at *sink_path*."""
        if self.spans is None:
            JsonlSpanSink(sink_path).emit(span)
        else:
            self.spans.append((str(sink_path), span.to_dict()))

    def export(self) -> dict[str, Any]:
        """The collected spans and metric observations as picklable data."""
        return {
            "spans": self.spans or [],
            "metrics": {} if self.metrics is None else self.metrics.observations(),
        }

    def merge(self, exported: Mapping[str, Any]) -> None:
        """Record what another recording collected (see :meth:`export`)."""
        for sink_path, span in exported.get("spans") or ():
            self.emit(sink_path, Span.from_dict(span))
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


@contextmanager
def file_span(
    sink_path: str | Path,
    trace_id: str,
    parent_id: str | None,
    name: str,
    **attrs: Any,
) -> Iterator[None]:
    """Measure a block and record it as one span bound for *sink_path*.

    The in-task span primitive: cheap to construct from the picklable
    ``(path, trace_id, parent_id)`` triple a task carries across the
    process boundary.  The span goes to the active :class:`Recording`;
    with none active the block runs untimed and nothing is recorded.
    """
    recording = _ACTIVE.get()
    if recording is None:
        yield
        return
    start_wall = time.time()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        recording.emit(sink_path, Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            start_s=start_wall,
            wall_s=time.perf_counter() - t0,
            cpu_s=time.process_time() - c0,
            attrs=attrs,
            pid=os.getpid(),
        ))
