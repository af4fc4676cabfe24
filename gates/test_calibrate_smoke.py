"""The CI ``calibrate-smoke`` gate: the Monte-Carlo calibration of the
statistics engine at its smoke profile (docs/CALIBRATION.md)."""

from __future__ import annotations

from conftest import repro


def test_calibration_gate(tmp_path_factory):
    # Exit code 1 when any (procedure, generator) cell falls outside its
    # tolerance band.
    out = tmp_path_factory.mktemp("calibration", numbered=False)
    repro("calibrate", "--profile", "smoke", "--out", out,
          "--emit-metrics", out / "metrics.json")
