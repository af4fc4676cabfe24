"""The CI ``dist-smoke`` gate: one coordinator and three cli-spawned socket
workers against a serial reference run of the same campaign
(docs/EXEC.md)."""

from __future__ import annotations

import subprocess
import time

import pytest
from conftest import prom, repro

from repro.obs import read_trace

CAMPAIGN = ("--samples", 20, "--reps", 2)


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    camp = tmp_path_factory.mktemp("serial", numbered=False)
    repro("campaign", "--dir", camp, *CAMPAIGN, "--workers", 1, timeout=120)
    return camp


@pytest.fixture(scope="module")
def dist(tmp_path_factory):
    """The coordinator launches ``repro worker`` subprocesses, the code
    path a real multi-host deployment runs per rank.  A clean exit means
    every worker answered SHUTDOWN with GOODBYE and was reaped."""
    camp = tmp_path_factory.mktemp("dist", numbered=False)
    repro("campaign", "--dir", camp, *CAMPAIGN, "--dist", 3, "--dist-spawn", "cli",
          "--emit-metrics", camp / "metrics.prom", timeout=120)
    return camp


def test_workers_connect_and_ship_kernel_metrics(dist):
    metrics = prom(dist / "metrics.prom")
    assert metrics["repro_dist_workers_connected_total"] >= 1
    # Kernel metrics recorded on remote workers reach home, not lost.
    assert metrics["repro_simsys_kernel_ops_total"] >= 1
    assert metrics["repro_simsys_kernel_seconds_count"] >= 1


def test_datasets_byte_identical_to_serial(serial, dist):
    # The determinism contract across the wire: same seeds, same bytes,
    # whichever rank measured each replication.
    files = sorted(p.name for p in serial.glob("synthetic-latency_*.json"))
    assert files and files == sorted(p.name for p in dist.glob("synthetic-latency_*.json"))
    for name in files:
        assert (serial / name).read_bytes() == (dist / name).read_bytes(), (
            f"{name}: the dist dataset differs from serial")


def test_no_orphaned_workers(dist):
    time.sleep(1)
    found = subprocess.run(["pgrep", "-af", "repro worker --connect"],
                           capture_output=True, text=True)
    assert found.returncode == 1, f"orphaned dist workers survived:\n{found.stdout}"


def test_worker_trace_renders(dist):
    repro("trace", dist)


def test_worker_spans_match_serial(serial, dist):
    # As many measurement-batch spans as the serial run, each in the
    # campaign's trace, under a design point, from a worker process.
    def batches(spans):
        return [s for s in spans if s.name == "measurement-batch"]

    want = read_trace(serial / "trace.jsonl")
    spans = read_trace(dist / "trace.jsonl")
    assert batches(spans), "no measurement-batch spans in the dist trace"
    assert len(batches(spans)) == len(batches(want)), (
        f"{len(batches(spans))} dist batch spans, {len(batches(want))} serial")
    (campaign,) = [s for s in spans if s.name == "campaign"]
    names = {s.span_id: s.name for s in spans}
    for s in batches(spans):
        assert s.trace_id == campaign.trace_id, "batch span outside the campaign trace"
        assert names.get(s.parent_id) == "design-point", "batch span not under a design point"
        assert s.pid != campaign.pid, "batch span not measured by a worker"
