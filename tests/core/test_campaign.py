"""Tests for the persistent measurement campaign store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Campaign, MeasurementSet, from_machine
from repro.errors import ValidationError
from repro.simsys import piz_daint


def make_ms(rng, name="64B ping-pong", shift=0.0, n=200):
    return MeasurementSet(
        values=rng.lognormal(0.5 + shift, 0.2, n),
        unit="us",
        name=name,
        metadata={"machine": "piz_dora"},
    )


class TestCampaignLifecycle:
    def test_create_and_open(self, tmp_path):
        env = from_machine(piz_daint(), input_desc="x", measurement_desc="y")
        camp = Campaign.create(tmp_path / "c", name="study", environment=env)
        reopened = Campaign.open(tmp_path / "c")
        assert reopened.name == "study"
        done, total = reopened.environment().completeness()
        assert done == total == 9

    def test_create_twice_rejected(self, tmp_path):
        Campaign.create(tmp_path / "c", name="a")
        with pytest.raises(ValidationError):
            Campaign.create(tmp_path / "c", name="b")

    def test_open_missing(self, tmp_path):
        with pytest.raises(ValidationError):
            Campaign.open(tmp_path / "nothing")


class TestCampaignData:
    def test_record_and_load_round_trip(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        ms = make_ms(rng)
        camp.record(ms)
        back = camp.load("64B ping-pong")
        assert np.allclose(back.values, ms.values)
        assert back.unit == "us"
        assert back.metadata["machine"] == "piz_dora"

    def test_names_sorted(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        camp.record(make_ms(rng, name="zeta"))
        camp.record(make_ms(rng, name="alpha"))
        assert camp.names() == ["alpha", "zeta"]

    def test_silent_overwrite_refused(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        camp.record(make_ms(rng))
        with pytest.raises(ValidationError, match="overwrite"):
            camp.record(make_ms(rng))
        camp.record(make_ms(rng, shift=0.1), overwrite=True)  # explicit is fine
        assert camp.names() == ["64B ping-pong"]

    def test_load_unknown(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        with pytest.raises(ValidationError):
            camp.load("missing")

    def test_slug_handles_odd_names(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        path = camp.record(make_ms(rng, name="HPL @ 64 nodes (N=314k)"))
        assert path.exists()
        assert camp.load("HPL @ 64 nodes (N=314k)").n == 200

    def test_names_sharing_a_file_are_refused(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="x")
        first = make_ms(rng, name="a b")
        camp.record(first)
        with pytest.raises(ValidationError, match="'a_b' and 'a b'"):
            camp.record(make_ms(rng, name="a_b", shift=5.0))
        assert camp.names() == ["a b"]
        assert np.array_equal(camp.load("a b").values, first.values)

    def test_index_parsed_once_until_it_changes(self, tmp_path, rng, monkeypatch):
        import json

        import repro.core.campaign as campaign_mod

        camp = Campaign.create(tmp_path / "c", name="x")
        for i in range(3):
            camp.record(make_ms(rng, name=f"d{i}"))
        parsed = []

        class CountingJson:
            dumps = staticmethod(json.dumps)

            @staticmethod
            def loads(raw):
                parsed.append(raw)
                return json.loads(raw)

        monkeypatch.setattr(campaign_mod, "json", CountingJson)
        reader = Campaign.open(camp.path)
        for name in reader.names():
            reader.load(name)
        assert len(parsed) == 1
        reader.names().clear()
        assert reader.names() == ["d0", "d1", "d2"]
        camp.record(make_ms(rng, name="d3"))
        assert reader.names() == ["d0", "d1", "d2", "d3"]
        assert len(parsed) == 2

    def test_unusable_name_rejected(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        with pytest.raises(ValidationError):
            camp.record(make_ms(rng, name="///"))

    def test_survives_process_boundary(self, tmp_path, rng):
        """Opening in a 'new session' sees identical data (Rule 9)."""
        ms = make_ms(rng)
        Campaign.create(tmp_path / "c", name="s").record(ms)
        back = Campaign.open(tmp_path / "c").load(ms.name)
        assert np.array_equal(back.values, ms.values)


class TestCampaignCompare:
    def test_no_change_detected(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        camp.record(make_ms(rng))
        result = camp.compare("64B ping-pong", make_ms(rng))
        assert not result.kruskal.significant(0.01)

    def test_regression_detected(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        camp.record(make_ms(rng))
        slower = make_ms(rng, shift=0.3)  # a 35% slowdown
        result = camp.compare("64B ping-pong", slower)
        assert result.kruskal.significant(0.01)
        assert result.effect_sizes[(0, 1)] < 0  # stored minus new: slower

    def test_unit_mismatch_rejected(self, tmp_path, rng):
        camp = Campaign.create(tmp_path / "c", name="s")
        camp.record(make_ms(rng))
        wrong = MeasurementSet(
            values=rng.lognormal(0.5, 0.2, 50), unit="s", name="64B ping-pong"
        )
        with pytest.raises(ValidationError):
            camp.compare("64B ping-pong", wrong)


def campaign_measure(point, rep, rng):
    """Module-level (picklable) stochastic measure for Campaign.run tests."""
    return rng.lognormal(mean=float(point["p"]) * 0.1, sigma=0.2, size=5)


def make_engine_experiment(seed=11):
    from repro.core import Experiment, Factor, FactorialDesign

    return Experiment(
        name="camp-run",
        design=FactorialDesign((Factor("p", (1, 2)),), replications=2),
        measure=campaign_measure,
        unit="us",
        seed=seed,
    )


class TestCampaignRun:
    def test_run_records_datasets(self, tmp_path):
        camp = Campaign.create(tmp_path / "c", name="s")
        res = camp.run(make_engine_experiment())
        assert len(camp.names()) == 2
        for key, ms in res.datasets.items():
            back = camp.load(ms.name)
            assert np.array_equal(back.values, ms.values)

    def test_second_run_is_all_cache_hits(self, tmp_path):
        """The continuous-benchmarking property: a warm cache means the
        second run of the same campaign performs zero new measurements."""
        from repro.exec import ExecHooks

        camp = Campaign.create(tmp_path / "c", name="s")
        cold = ExecHooks()
        res1 = camp.run(make_engine_experiment(), hooks=cold)
        assert cold.completed == 4 and cold.cached == 0
        warm = ExecHooks()
        res2 = camp.run(make_engine_experiment(), hooks=warm, overwrite=True)
        assert warm.submitted == 0 and warm.completed == 0
        assert warm.cached == 4
        for key, ms in res1.datasets.items():
            assert np.array_equal(ms.values, res2.datasets[key].values)

    def test_changed_seed_misses_cache(self, tmp_path):
        from repro.exec import ExecHooks

        camp = Campaign.create(tmp_path / "c", name="s")
        camp.run(make_engine_experiment(seed=11))
        hooks = ExecHooks()
        camp.run(make_engine_experiment(seed=12), hooks=hooks, overwrite=True)
        assert hooks.cached == 0 and hooks.completed == 4

    def test_use_cache_false_always_measures(self, tmp_path):
        from repro.exec import ExecHooks

        camp = Campaign.create(tmp_path / "c", name="s")
        camp.run(make_engine_experiment(), use_cache=False)
        hooks = ExecHooks()
        camp.run(
            make_engine_experiment(), use_cache=False, hooks=hooks, overwrite=True
        )
        assert hooks.cached == 0 and hooks.completed == 4
        assert len(camp.result_cache()) == 0

    def test_record_false_leaves_store_empty(self, tmp_path):
        camp = Campaign.create(tmp_path / "c", name="s")
        res = camp.run(make_engine_experiment(), record=False)
        assert camp.names() == []
        assert len(res.datasets) == 2


class TestHostNoise:
    def test_measure_host_noise_basic(self):
        from repro.core import measure_host_noise

        report = measure_host_noise(quantum=2e-4, iterations=60)
        assert report.result.durations.size == 60
        # The floor is the observed minimum: detours are non-negative.
        assert np.all(report.result.detours >= 0.0)
        assert 0.0 <= report.result.noise_fraction < 1.0
        assert "noise fraction" in report.summary()

    def test_quantum_calibration_close(self):
        from repro.core import measure_host_noise

        report = measure_host_noise(quantum=1e-3, iterations=30)
        # Calibration lands within a factor of a few of the target.
        assert 0.3e-3 < report.result.quantum < 10e-3

    def test_deterministic_timer_variant(self):
        from repro.core import SimTimer, measure_host_noise
        from repro.simsys import SimClock

        # A perfect clock and spin: zero noise measured.
        timer = SimTimer(clock=SimClock(granularity=0.0, read_overhead=0.0))
        # Spinning advances no simulated time, so calibration would loop;
        # instead verify the API rejects too-few iterations.
        from repro.errors import ValidationError
        import pytest as _pytest

        with _pytest.raises(ValidationError):
            measure_host_noise(quantum=1e-3, iterations=5)
