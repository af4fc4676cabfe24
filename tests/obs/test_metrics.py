"""Tests for the metrics registry and its export formats."""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import ValidationError
from repro.exec import ExecHooks
from repro.obs import DEFAULT_BUCKETS, METRICS, MetricsRegistry


class TestPrimitives:
    def test_counter_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("repro_things_total")
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_gauge_goes_both_ways(self):
        g = MetricsRegistry().gauge("repro_ratio")
        g.set(0.75)
        g.inc(-0.25)
        assert g.value == 0.5

    def test_histogram_cumulative_buckets(self):
        h = MetricsRegistry().histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)
        cum = dict(h.cumulative())
        assert cum[0.1] == 1 and cum[1.0] == 3 and cum[float("inf")] == 4

    def test_invalid_name_rejected(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("bad name!")

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_x_total") is reg.counter("repro_x_total")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ValidationError):
            reg.gauge("repro_x")


class TestExecHooksBridge:
    def test_hooks_events_mirror_into_registry(self):
        reg = MetricsRegistry()
        hooks = ExecHooks(metrics=reg)
        hooks.record("submitted", "t0")
        hooks.record("completed", "t0", seconds=0.02)
        hooks.record("cached", "t1")
        hooks.record("retried", "t2")
        hooks.record("failed", "t2")
        assert reg.get("repro_tasks_submitted_total").value == 1
        assert reg.get("repro_tasks_completed_total").value == 1
        assert reg.get("repro_tasks_cached_total").value == 1
        assert reg.get("repro_tasks_retried_total").value == 1
        assert reg.get("repro_tasks_failed_total").value == 1
        assert reg.get("repro_task_latency_seconds").count == 1
        assert reg.get("repro_cache_hit_ratio").value == pytest.approx(0.5)

    def test_all_engine_metrics_preregistered(self):
        reg = MetricsRegistry()
        assert set(METRICS) <= set(reg.names())
        for name, (kind, help_text, buckets) in METRICS.items():
            metric = reg.get(name)
            assert metric.kind == kind and metric.help == help_text
            if buckets is not None:
                assert metric.bounds == tuple(sorted(buckets))

    def test_hooks_without_registry_still_work(self):
        hooks = ExecHooks()
        hooks.record("submitted", "t0")
        assert hooks.submitted == 1


class TestMerge:
    def test_observations_merge_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("repro_simsys_kernel_ops_total").inc(3)
        worker.counter("repro_custom_total").inc(2)
        hist = worker.histogram("repro_simsys_kernel_seconds")
        for v in (2e-5, 2e-5, 0.3):
            hist.observe(v)
        obs = worker.observations()
        # Zero series and gauges stay home.
        assert set(obs) == {"repro_simsys_kernel_ops_total", "repro_custom_total",
                            "repro_simsys_kernel_seconds"}
        run = MetricsRegistry()
        run.merge(obs)
        run.merge(obs)
        assert run.get("repro_simsys_kernel_ops_total").value == 6
        assert run.get("repro_custom_total").value == 4
        merged = run.get("repro_simsys_kernel_seconds")
        assert merged.count == 6 and merged.sum == pytest.approx(2 * 0.30004)
        assert merged.cumulative() == [(b, 2 * c) for b, c in hist.cumulative()]

    def test_merge_refuses_other_buckets(self):
        other = MetricsRegistry()
        other.histogram("repro_lat_seconds", buckets=(1.0,)).observe(0.5)
        run = MetricsRegistry()
        run.histogram("repro_lat_seconds", buckets=(2.0,))
        with pytest.raises(ValidationError, match="buckets"):
            run.merge(other.observations())


# One sample line of the text exposition format: name, optional labels,
# and a number (or +Inf/-Inf/NaN).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (-?[0-9.]+(e[+-]?[0-9]+)?|\+Inf|-Inf|NaN)$"
)


class TestExport:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        hooks = ExecHooks(metrics=reg)
        hooks.record("submitted", "a")
        hooks.record("completed", "a", seconds=0.3)
        return reg

    def test_prometheus_text_validates(self):
        text = self._populated().to_prometheus()
        assert text.endswith("\n")
        seen_types: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in ("counter", "gauge", "histogram")
                seen_types[name] = kind
                continue
            assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"
        assert seen_types["repro_tasks_submitted_total"] == "counter"
        assert seen_types["repro_task_latency_seconds"] == "histogram"
        assert seen_types["repro_cache_hit_ratio"] == "gauge"

    def test_histogram_export_is_cumulative_with_inf(self):
        text = self._populated().to_prometheus()
        bucket_lines = [
            l for l in text.splitlines()
            if l.startswith("repro_task_latency_seconds_bucket")
        ]
        assert len(bucket_lines) == len(DEFAULT_BUCKETS) + 1
        assert bucket_lines[-1].startswith(
            'repro_task_latency_seconds_bucket{le="+Inf"}'
        )
        counts = [float(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)  # cumulative: never decreasing
        assert "repro_task_latency_seconds_sum 0.3" in text
        assert "repro_task_latency_seconds_count 1" in text

    def test_json_export_round_trips(self):
        payload = json.loads(self._populated().to_json())
        assert payload["repro_tasks_submitted_total"]["kind"] == "counter"
        assert payload["repro_tasks_submitted_total"]["value"] == 1
        hist = payload["repro_task_latency_seconds"]["value"]
        assert hist["count"] == 1 and "+Inf" in hist["buckets"]

    def test_write_picks_format_by_suffix(self, tmp_path):
        reg = self._populated()
        jpath, ppath = tmp_path / "m.json", tmp_path / "m.prom"
        reg.write(jpath)
        reg.write(ppath)
        assert json.loads(jpath.read_text())
        assert ppath.read_text().startswith("# HELP")
