"""Campaign metrics: counters, gauges, histograms, Prometheus export.

Vogelsang et al. ("Continuous benchmarking") argue sustained benchmarking
campaigns are only trustworthy with built-in run telemetry.  This module
is that telemetry substrate: a small, dependency-free metrics registry
whose contents export as JSON (for provenance manifests and dashboards)
and as the Prometheus text exposition format (for scrapers).

Every metric name repro records is fixed in one table, :data:`METRICS`
(kind, help text and histogram buckets), and ``MetricsRegistry()``
registers the whole table.  A registry reaches the code that records
into it one way per side: ``ExecHooks(metrics=registry)`` on the
execution side (the engine, the dist coordinator, chaos, and — through
the active :class:`~repro.obs.Recording` — code running inside a task,
such as the simulator kernels), and ``metrics=registry`` on the serve
side.

Registration takes the registry lock, so components on several threads
(or several sequential engine invocations sharing one registry) get the
same metric objects.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Iterable, Mapping

from ..errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "METRICS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency buckets (seconds) — Prometheus' classic spread.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Kernel-evaluation latency buckets — collectives evaluate in
#: microseconds-to-seconds, far below the engine's task-level spread.
_KERNEL_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.5, 10.0,
)

#: Every metric family repro records: ``name -> (kind, help, buckets)``,
#: grouped by the layer that records it.  ``buckets`` is None except for
#: histograms.  :class:`MetricsRegistry` registers them all at
#: construction, so an export taken before any event still shows every
#: series at zero and tells "no faults" apart from "not instrumented".
METRICS: dict[str, tuple[str, str, tuple[float, ...] | None]] = {
    # The engine (ExecHooks.record and run_measurement_tasks).
    "repro_tasks_submitted_total": (
        "counter", "Tasks handed to an executor (cache hits excluded).", None),
    "repro_tasks_completed_total": (
        "counter", "Tasks that finished successfully on an executor.", None),
    "repro_tasks_cached_total": (
        "counter", "Tasks answered from the result cache without measuring.", None),
    "repro_tasks_retried_total": ("counter", "Individual retry attempts.", None),
    "repro_tasks_failed_total": (
        "counter", "Tasks that exhausted their retries.", None),
    "repro_task_latency_seconds": (
        "histogram", "Wall-clock seconds per executed task.", DEFAULT_BUCKETS),
    "repro_cache_hit_ratio": (
        "gauge", "Cached tasks over all tasks seen so far.", None),
    "repro_cache_corrupt_total": (
        "counter", "Corrupt cache entries detected on read and quarantined.", None),
    "repro_measurements_per_second": (
        "gauge", "Measured values per second of task wall time.", None),
    # Fault injection (repro.chaos) and graceful degradation (Experiment.run).
    "repro_chaos_crashes_injected_total": (
        "counter", "Worker crashes planted by a fault plan.", None),
    "repro_chaos_hangs_injected_total": (
        "counter", "Worker hangs planted by a fault plan.", None),
    "repro_chaos_cache_corruptions_injected_total": (
        "counter", "Cache entries corrupted by a fault plan.", None),
    "repro_chaos_points_recovered_total": (
        "counter", "Design points needing retries that still produced full data.", None),
    "repro_chaos_points_degraded_total": (
        "counter", "Design points that lost replications but kept values.", None),
    "repro_chaos_points_failed_total": (
        "counter", "Design points annotated as failed (no surviving values).", None),
    "repro_chaos_net_kills_injected_total": (
        "counter", "Workers killed mid-task by a fault plan.", None),
    "repro_chaos_net_partitions_injected_total": (
        "counter", "Worker connections severed by a fault plan.", None),
    "repro_chaos_net_slow_links_injected_total": (
        "counter", "Worker result sends delayed by a fault plan.", None),
    # The dist coordinator (repro.exec.dist).
    "repro_dist_workers_connected_total": (
        "counter", "Workers that completed the dist handshake.", None),
    "repro_dist_workers_lost_total": (
        "counter", "Worker connections lost mid-run (crash, partition, timeout).", None),
    "repro_dist_tasks_reassigned_total": (
        "counter", "Task attempts requeued because their worker was lost.", None),
    # The figure server (repro.serve) and service (repro.report.registry).
    "repro_serve_requests_total": (
        "counter", "HTTP requests handled by the figure server.", None),
    "repro_serve_errors_total": (
        "counter", "Requests answered with a 4xx/5xx status.", None),
    "repro_serve_not_modified_total": (
        "counter", "Requests answered 304 via If-None-Match.", None),
    "repro_serve_cache_hits_total": (
        "counter", "Figure renders served from the content-addressed cache.", None),
    "repro_serve_renders_total": (
        "counter", "Figure renders that executed a builder.", None),
    "repro_serve_request_seconds": (
        "histogram", "Wall-clock seconds per handled request.", DEFAULT_BUCKETS),
    # Simulation kernels (repro.simsys.mpi, inside the active recording).
    "repro_simsys_kernel_ops_total": (
        "counter", "Collective evaluations run by the simulator.", None),
    "repro_simsys_kernel_messages_total": (
        "counter", "Simulated messages across all evaluations.", None),
    "repro_simsys_kernel_seconds": (
        "histogram", "Wall-clock seconds per collective evaluation.", _KERNEL_BUCKETS),
    # The calibration study (repro.validate).
    "repro_validate_trials_total": (
        "counter", "Monte-Carlo calibration trials executed.", None),
    "repro_validate_cells_total": (
        "counter", "Calibration cells (procedure x generator) evaluated.", None),
    "repro_validate_cells_flagged_total": (
        "counter", "Calibration cells outside their tolerance band.", None),
    "repro_validate_flagged_ratio": (
        "gauge", "Flagged cells over all cells in the last study.", None),
}


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ValidationError(f"invalid metric name {name!r}")
    return name


class _Metric:
    """Name + help text shared by all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = str(help)

    def _samples(self) -> list[tuple[str, float]]:
        raise NotImplementedError

    def value_dict(self) -> Any:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only go up; use a gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _samples(self) -> list[tuple[str, float]]:
        return [(self.name, self._value)]

    def value_dict(self) -> Any:
        return self._value


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _samples(self) -> list[tuple[str, float]]:
        return [(self.name, self._value)]

    def value_dict(self) -> Any:
        return self._value


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists.  Exported counts are cumulative, as scrapers expect.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValidationError("histogram needs at least one bucket bound")
        self.bounds: tuple[float, ...] = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending at ``+Inf``."""
        out, running = [], 0
        for bound, c in zip(self.bounds, self._counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out

    def _samples(self) -> list[tuple[str, float]]:
        samples = []
        for bound, cum in self.cumulative():
            le = "+Inf" if math.isinf(bound) else format(bound, "g")
            samples.append((f'{self.name}_bucket{{le="{le}"}}', float(cum)))
        samples.append((f"{self.name}_sum", self._sum))
        samples.append((f"{self.name}_count", float(self._count)))
        return samples

    def _add(self, bounds: tuple[float, ...], counts: Iterable[int],
             total: float, count: int) -> None:
        """Fold another histogram's per-bucket counts, sum and count in."""
        if tuple(bounds) != self.bounds:
            raise ValidationError(
                f"histogram {self.name!r} has buckets {self.bounds}, got {tuple(bounds)}"
            )
        self._counts = [a + int(b) for a, b in zip(self._counts, counts)]
        self._sum += float(total)
        self._count += int(count)

    def value_dict(self) -> Any:
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": {
                ("+Inf" if math.isinf(b) else format(b, "g")): c
                for b, c in self.cumulative()
            },
        }


_KINDS: dict[str, type] = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus export.

    Starts with every family of :data:`METRICS` registered at zero.
    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the existing instance (and raises if the kind
    differs), so independent components can share one registry safely.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()
        for name, (kind, help_text, buckets) in METRICS.items():
            kw = {} if buckets is None else {"buckets": buckets}
            self._metrics[name] = _KINDS[kind](name, help_text, **kw)

    def _get_or_create(self, cls: type, name: str, help: str, **kw: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValidationError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kw)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        """The registered metric named *name*, or None."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- merging another process's observations --------------------------

    def observations(self) -> dict[str, Any]:
        """Every counter and histogram observed so far, as picklable data.

        A counter maps to its value, a histogram to ``(bounds,
        per-bucket counts, sum, count)``; series at zero and gauges are
        left out.  A dist worker ships this home with each attempt, and
        the coordinator adds it to the run's registry with :meth:`merge`.
        """
        out: dict[str, Any] = {}
        with self._lock:
            for name, m in self._metrics.items():
                if isinstance(m, Histogram) and m.count:
                    out[name] = (m.bounds, tuple(m._counts), m.sum, m.count)
                elif isinstance(m, Counter) and m.value:
                    out[name] = m.value
        return out

    def merge(self, observations: Mapping[str, Any]) -> None:
        """Add :meth:`observations` of another registry to this one."""
        for name, obs in observations.items():
            if isinstance(obs, tuple):
                bounds, counts, total, count = obs
                self.histogram(name, buckets=bounds)._add(bounds, counts, total, count)
            else:
                self.counter(name).inc(obs)

    # -- export ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """``{name: {kind, help, value}}`` for JSON export / provenance."""
        with self._lock:
            return {
                name: {
                    "kind": m.kind,
                    "help": m.help,
                    "value": m.value_dict(),
                }
                for name, m in sorted(self._metrics.items())
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if metric.help:
                    escaped = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
                    lines.append(f"# HELP {name} {escaped}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for sample_name, value in metric._samples():
                    if math.isinf(value):
                        rendered = "+Inf" if value > 0 else "-Inf"
                    elif math.isnan(value):
                        rendered = "NaN"
                    else:
                        rendered = format(value, "g")
                    lines.append(f"{sample_name} {rendered}")
        return "\n".join(lines) + "\n"

    def write(self, path: Any) -> None:
        """Write the registry to *path*: ``.json`` → JSON, else Prometheus."""
        from pathlib import Path

        path = Path(path)
        if path.suffix == ".json":
            path.write_text(self.to_json() + "\n")
        else:
            path.write_text(self.to_prometheus())
