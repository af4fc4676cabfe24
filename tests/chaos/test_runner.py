"""Tests for the chaos gate runner and the determinism-under-faults property."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chaos import ChaosExecutor, FaultPlan, FaultProfile, run_chaos
from repro.core import Experiment, Factor, FactorialDesign
from repro.exec import ProcessExecutor, SerialExecutor
from repro.report import measurements_to_json

#: Every fault recoverable within two retries: crashes raise, hangs are
#: short, nothing touches the task RNG.  Seed 1 plants both kinds over
#: the six task labels of :func:`_experiment`.
RECOVERABLE = FaultProfile(name="recoverable", crash_p=0.4, hang_p=0.2, hang_s=0.01)


def seeded_measure(point, rep, rng):
    return rng.normal(loc=float(point["x"]), size=3)


def _experiment():
    return Experiment(
        name="det-under-faults",
        design=FactorialDesign((Factor("x", (1, 2, 3)),), replications=2),
        measure=seeded_measure,
        seed=5,
    )


def _report_json(result):
    """The campaign's serialized datasets, volatile execution metadata stripped.

    Fault recovery legitimately changes *how* a value was obtained
    (envelope state, retry counts, executor stats) — never the value.  So
    the determinism property compares everything else bit-for-bit.
    """
    docs = []
    for key in sorted(result.datasets, key=lambda k: dict(k)["x"]):
        payload = json.loads(measurements_to_json(result.datasets[key]))
        payload["metadata"].pop("exec", None)
        payload["metadata"].pop("provenance", None)
        docs.append(payload)
    return json.dumps(docs, sort_keys=True)


class TestDeterminismUnderFaults:
    @pytest.fixture(scope="class")
    def clean(self):
        return _experiment().run(executor=SerialExecutor(retries=0))

    @pytest.mark.parametrize(
        "make_executor",
        [
            lambda: SerialExecutor(retries=2, backoff=0.0),
            lambda: ProcessExecutor(max_workers=2, retries=2, backoff=0.0),
        ],
        ids=["serial", "process"],
    )
    def test_recovered_campaign_bit_identical(self, clean, make_executor, tmp_path):
        plan = FaultPlan(RECOVERABLE, seed=1)
        chaos = ChaosExecutor(make_executor(), plan, tmp_path / "state")
        res = _experiment().run(executor=chaos, on_failure="annotate")
        # Faults actually fired, and everything came back.
        assert chaos.injected["crash"] > 0 and chaos.injected["hang"] > 0
        assert set(res.datasets) == set(clean.datasets)
        assert {e.state for e in res.envelopes.values()} <= {"ok", "recovered"}
        for key in clean.datasets:
            assert np.array_equal(
                clean.datasets[key].values, res.datasets[key].values
            )
        assert _report_json(res) == _report_json(clean)


class TestRunChaos:
    def test_smoke_gate_green_at_pinned_seed(self, tmp_path):
        # Seed 12 is the CLI default precisely because it plants every
        # fault kind against the gate's fixed design; this test pins that.
        report = run_chaos("smoke", out_dir=tmp_path, seed=12)
        assert report.ok, report.describe()
        assert report.injected["crashes"] >= 1
        assert report.injected["hangs"] >= 1
        assert report.injected["cache_corruptions"] >= 1
        assert report.injected["clock_steps"] == 1
        assert sum(report.states.values()) == 8  # one envelope per design point
        assert not report.escapes

        path = report.write(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert len(payload["checks"]) == 9
        assert "OK" in report.describe()

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dist_gate_plants_socket_faults(self, tmp_path, workers):
        # Kills and partitions need worker processes, so the gate runs
        # the dist profile over a ProcessExecutor even at one worker.
        report = run_chaos("dist", out_dir=tmp_path, seed=12, workers=workers)
        assert report.ok, report.describe()
        assert report.injected["net_kills"] >= 1
        assert report.injected["net_partitions"] >= 1
        assert report.injected["net_slow_links"] >= 1
        assert set(report.states) <= {"ok", "recovered"}
        assert "socket faults were injected" in {c.name for c in report.checks}

    def test_gate_closes_the_executors_it_makes(self, tmp_path, monkeypatch):
        import repro.chaos.runner as runner

        made = []

        class Recorded(runner.ProcessExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(runner, "ProcessExecutor", Recorded)
        assert run_chaos("dist", out_dir=tmp_path, seed=12).ok
        assert len(made) == 2
        assert all(ex._listen_sock.fileno() == -1 for ex in made)

    def test_none_profile_fails_the_gate_without_escaping(self, tmp_path):
        report = run_chaos("none", out_dir=tmp_path, seed=0)
        assert not report.ok
        assert not report.escapes  # failing checks is not crashing
        failed = {c.name for c in report.checks if not c.ok}
        assert "task faults were injected" in failed
        assert "cache corruptions were injected" in failed
