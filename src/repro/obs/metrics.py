"""Campaign metrics: counters, gauges, histograms, Prometheus export.

Vogelsang et al. ("Continuous benchmarking") argue sustained benchmarking
campaigns are only trustworthy with built-in run telemetry.  This module
is that telemetry substrate: a small, dependency-free metrics registry
whose contents export as JSON (for provenance manifests and dashboards)
and as the Prometheus text exposition format (for scrapers).

The engine-facing metric names are fixed (see :data:`EXEC_METRICS`):
``repro_tasks_*_total`` counters mirror the :class:`repro.exec.ExecHooks`
counters, ``repro_task_latency_seconds`` is a histogram of per-task wall
time, ``repro_cache_hit_ratio`` and ``repro_measurements_per_second`` are
gauges.  :meth:`MetricsRegistry.bind_exec_hooks` installs the bridge.

All updates take the registry lock, so hooks fired from multiple threads
(or several sequential engine invocations sharing one registry) stay
consistent.
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
    "EXEC_METRICS",
    "SIMSYS_METRICS",
    "CHAOS_METRICS",
    "DIST_METRICS",
    "SERVE_METRICS",
    "SIMSYS_KERNEL_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency buckets (seconds) — Prometheus' classic spread.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: The engine's metric names and help strings, in export order.
EXEC_METRICS: dict[str, str] = {
    "repro_tasks_submitted_total": "Tasks handed to an executor (cache hits excluded).",
    "repro_tasks_completed_total": "Tasks that finished successfully on an executor.",
    "repro_tasks_cached_total": "Tasks answered from the result cache without measuring.",
    "repro_tasks_retried_total": "Individual retry attempts.",
    "repro_tasks_failed_total": "Tasks that exhausted their retries.",
    "repro_task_latency_seconds": "Wall-clock seconds per executed task.",
    "repro_cache_hit_ratio": "Cached tasks over all tasks seen so far.",
    "repro_cache_corrupt_total": "Corrupt cache entries detected on read and quarantined.",
    "repro_measurements_per_second": "Measured values per second of task wall time.",
}

#: Fault-injection and graceful-degradation metric names (recorded by
#: :mod:`repro.chaos` and by ``Experiment.run`` envelope accounting).
CHAOS_METRICS: dict[str, str] = {
    "repro_chaos_crashes_injected_total": "Worker crashes planted by a fault plan.",
    "repro_chaos_hangs_injected_total": "Worker hangs planted by a fault plan.",
    "repro_chaos_cache_corruptions_injected_total": "Cache entries corrupted by a fault plan.",
    "repro_chaos_points_recovered_total": "Design points needing retries that still produced full data.",
    "repro_chaos_points_degraded_total": "Design points that lost replications but kept values.",
    "repro_chaos_points_failed_total": "Design points annotated as failed (no surviving values).",
    "repro_chaos_net_kills_injected_total": "Workers killed mid-task by a fault plan.",
    "repro_chaos_net_partitions_injected_total": "Worker connections severed by a fault plan.",
    "repro_chaos_net_slow_links_injected_total": "Worker result sends delayed by a fault plan.",
}

#: Distributed-backend metric names (recorded by ``repro.exec.dist``).
DIST_METRICS: dict[str, str] = {
    "repro_dist_workers_connected_total": "Workers that completed the dist handshake.",
    "repro_dist_workers_lost_total": "Worker connections lost mid-run (crash, partition, timeout).",
    "repro_dist_tasks_reassigned_total": "Task attempts requeued because their worker was lost.",
}

#: Report-server metric names (recorded by :mod:`repro.serve` and the
#: figure service in :mod:`repro.report.registry`).
SERVE_METRICS: dict[str, str] = {
    "repro_serve_requests_total": "HTTP requests handled by the figure server.",
    "repro_serve_errors_total": "Requests answered with a 4xx/5xx status.",
    "repro_serve_not_modified_total": "Requests answered 304 via If-None-Match.",
    "repro_serve_cache_hits_total": "Figure renders served from the content-addressed cache.",
    "repro_serve_renders_total": "Figure renders that executed a builder.",
    "repro_serve_request_seconds": "Wall-clock seconds per handled request.",
}

#: Simulation-kernel metric names (recorded by repro.simsys.mpi when a
#: registry is bound via ``bind_kernel_metrics``), in export order.
SIMSYS_METRICS: dict[str, str] = {
    "repro_simsys_kernel_ops_total": "Collective evaluations run by the simulator.",
    "repro_simsys_kernel_messages_total": "Simulated messages across all evaluations.",
    "repro_simsys_kernel_seconds": "Wall-clock seconds per collective evaluation.",
}

#: Kernel-evaluation latency buckets — collectives evaluate in
#: microseconds-to-seconds, far below the engine's task-level spread.
SIMSYS_KERNEL_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.5, 10.0,
)


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

    def value_dict(self) -> Any:
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": {
                ("+Inf" if math.isinf(b) else format(b, "g")): c
                for b, c in self.cumulative()
            },
        }


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus export.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the existing instance (and raises if the kind
    differs), so independent components can share one registry safely.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

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

    # -- engine bridge ---------------------------------------------------

    def bind_exec_hooks(self, hooks: Any) -> None:
        """Install this registry on an :class:`repro.exec.ExecHooks`.

        Pre-registers the engine metric set (:data:`EXEC_METRICS`) so an
        export taken before any event still shows every series, then sets
        ``hooks.metrics = self``; ``ExecHooks.record`` does the rest.
        """
        for name, help_text in EXEC_METRICS.items():
            if name.endswith("_total"):
                self.counter(name, help_text)
            elif name.endswith("_seconds"):
                self.histogram(name, help_text)
            else:
                self.gauge(name, help_text)
        hooks.metrics = self

    def bind_chaos_metrics(self) -> None:
        """Pre-register the fault-injection metric set (:data:`CHAOS_METRICS`).

        All chaos metrics are counters; pre-registration makes an export
        taken from a fault-free run still show every series at zero, so
        dashboards can tell "no faults" from "not instrumented".
        """
        for name, help_text in CHAOS_METRICS.items():
            self.counter(name, help_text)

    def bind_dist_metrics(self) -> None:
        """Pre-register the distributed-backend counters (:data:`DIST_METRICS`)."""
        for name, help_text in DIST_METRICS.items():
            self.counter(name, help_text)

    def bind_serve_metrics(self) -> None:
        """Pre-register the report-server metric set (:data:`SERVE_METRICS`).

        An export scraped before the first request still shows every
        series at zero — in particular ``repro_serve_cache_hits_total``,
        whose zero-vs-absent distinction is what lets a smoke test prove
        "second render did no recompute" rather than "not instrumented".
        """
        for name, help_text in SERVE_METRICS.items():
            if name.endswith("_seconds"):
                self.histogram(name, help_text)
            else:
                self.counter(name, help_text)

    # -- remote forwarding -----------------------------------------------

    def counter_values(self) -> dict[str, float]:
        """A snapshot of every counter's current value, by name.

        The worker half of remote metric forwarding: a dist worker
        snapshots its private registry after each task and ships the
        *delta* since the previous snapshot to the coordinator.
        """
        with self._lock:
            return {
                name: m.value
                for name, m in self._metrics.items()
                if isinstance(m, Counter)
            }

    def merge_counter_deltas(
        self, deltas: Mapping[str, float], help_texts: Mapping[str, str] | None = None
    ) -> None:
        """Fold counter increments from another registry into this one.

        The coordinator half of remote metric forwarding.  Only counters
        merge — they are the one metric kind whose cross-process sum is
        well defined without clock or bucket reconciliation.  Negative or
        zero deltas are ignored (a restarted worker re-counts from zero).
        """
        help_texts = help_texts or {}
        for name, delta in deltas.items():
            delta = float(delta)
            if delta <= 0.0:
                continue
            self.counter(name, help_texts.get(name, "")).inc(delta)

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
