"""Observability for measurement campaigns (:mod:`repro.obs`).

Four layers, all dependency-free and engine-agnostic:

* :mod:`repro.obs.tracing` — spans (name, attrs, wall/CPU time, parent)
  emitted around campaign → experiment → design-point →
  measurement-batch, with a process-safe JSONL sink;
* :mod:`repro.obs.metrics` — counters/gauges/histograms, one table of
  metric families (:data:`METRICS`), exportable as JSON and Prometheus
  text format;
* :mod:`repro.obs.recording` — the :class:`Recording` every executor
  wraps around every task attempt, so spans and metrics raised inside a
  task reach the run's tracer and registry the same way from any process;
* :mod:`repro.obs.provenance` — :class:`Provenance` manifests (host
  environment, package versions, master seed, methodology, cache and
  execution statistics) attached to every measured dataset and embedded
  in report exports.
"""

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    METRICS,
    MetricsRegistry,
)
from .provenance import PROVENANCE_VERSION, Provenance, package_versions
from .recording import Recording, current_recording
from .tracing import JsonlSpanSink, Span, Tracer, read_trace, render_span_tree

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "METRICS",
    "Provenance",
    "PROVENANCE_VERSION",
    "package_versions",
    "Span",
    "Tracer",
    "JsonlSpanSink",
    "Recording",
    "current_recording",
    "read_trace",
    "render_span_tree",
]
