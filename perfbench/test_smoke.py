"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced with the smallest
inputs, and asserts that every metric BENCHMARK.json declares is printed
with its unit, that every output check passes and that nothing failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from probes import self_times  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_reports_every_metric(workload, trace, tmp_path):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--tiny", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    suffix = "-trace" if trace == "1" else ""
    suite = json.loads((tmp_path / f"{workload}-seed5{suffix}.json").read_text())
    assert suite["schema"] == 2 and suite["records"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "pipeline", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "parent", "span_id": "p", "parent_id": None,
         "start_s": 0.0, "wall_s": 10.0},
        {"name": "child", "span_id": "a", "parent_id": "p",
         "start_s": 1.0, "wall_s": 3.0},
        # Overlaps the first child (another thread): covered once.
        {"name": "child", "span_id": "b", "parent_id": "p",
         "start_s": 2.0, "wall_s": 4.0},
        {"name": "design-point", "span_id": "d", "parent_id": "p",
         "start_s": 0.0, "wall_s": 9.0},
    ]
    selfs = self_times(spans)
    assert selfs["parent"] == pytest.approx(5.0)
    assert selfs["child"] == pytest.approx(7.0)
    assert "design-point" not in selfs
