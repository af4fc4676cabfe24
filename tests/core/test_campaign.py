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


#: Per-point offsets added by ``shifted_measure`` (tests set them).
_SHIFT: dict = {}


def shifted_measure(point, rep, rng):
    """``campaign_measure`` plus an offset a test can set for one point."""
    return campaign_measure(point, rep, rng) + _SHIFT.get(point["p"], 0.0)


def make_shifted_experiment():
    from repro.core import Experiment, Factor, FactorialDesign

    return Experiment(
        name="camp-run",
        design=FactorialDesign((Factor("p", (1, 2, 3)),), replications=2),
        measure=shifted_measure,
        unit="us",
        seed=11,
    )


def snapshot(path):
    """Every file under *path*: its bytes, inode and mtime_ns."""
    out = {}
    for f in sorted(path.rglob("*")):
        if f.is_file():
            st = f.stat()
            out[str(f.relative_to(path))] = (f.read_bytes(), st.st_ino, st.st_mtime_ns)
    return out


def changed_files(before, after):
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def write_inline_campaign(path, result):
    """A campaign as written before run fields moved to runs.json: each
    dataset file carries its metadata whole."""
    import json

    from repro.core.campaign import _digest, _slug
    from repro.report.export import measurements_to_json

    camp = Campaign.create(path, name="legacy")
    entries = []
    for ms in result.datasets.values():
        data = measurements_to_json(ms).encode()
        file = f"{_slug(ms.name)}.json"
        (path / file).write_bytes(data)
        entries.append({"name": ms.name, "file": file, "n": ms.n,
                        "unit": ms.unit, "digest": _digest(data)})
    entries.sort(key=lambda d: d["name"])
    index = json.loads((path / "campaign.json").read_text())
    index["datasets"] = entries
    (path / "campaign.json").write_text(json.dumps(index, separators=(",", ":")))
    return Campaign.open(path)


class TestValuePureDatasets:
    """Dataset files hold values and their declaration; run fields go to
    runs.json, so a value-identical rerun rewrites no dataset file."""

    @pytest.mark.parametrize("spill_rows", [None, 4])
    def test_identical_rerun_writes_only_runs_json(self, tmp_path, spill_rows):
        from repro.report.registry import campaign_digest

        camp = Campaign.create(tmp_path / "c", name="s")
        camp.run(make_shifted_experiment(), spill_rows=spill_rows)
        key = campaign_digest(camp)
        before = snapshot(camp.path)
        camp.run(make_shifted_experiment(), overwrite=True, spill_rows=spill_rows)
        assert changed_files(before, snapshot(camp.path)) == ["runs.json"]
        assert campaign_digest(camp) == key
        assert campaign_digest(Campaign.open(camp.path)) == key

    def test_one_changed_value_rewrites_exactly_its_file(self, tmp_path, monkeypatch):
        import json

        from repro.report.registry import campaign_digest

        camp = Campaign.create(tmp_path / "c", name="s")
        first = camp.run(make_shifted_experiment())

        def digests():
            index = json.loads((camp.path / "campaign.json").read_text())
            return {d["name"]: d["digest"] for d in index["datasets"]}

        index_before, key = digests(), campaign_digest(camp)
        before = snapshot(camp.path)
        monkeypatch.setitem(_SHIFT, 2, 1.0)
        second = camp.run(make_shifted_experiment(), use_cache=False, overwrite=True)
        moved = [ms.name for k, ms in first.datasets.items()
                 if not np.array_equal(ms.values, second.datasets[k].values)]
        assert moved == ["camp-run @ {'p': 2}"]
        file = next(d["file"] for d in camp._read_datasets() if d["name"] == moved[0])
        assert changed_files(before, snapshot(camp.path)) == sorted(
            ["campaign.json", "runs.json", file])
        index_after = digests()
        assert [n for n in index_before if index_before[n] != index_after[n]] == moved
        assert campaign_digest(camp) != key

    def test_failed_replace_keeps_the_old_file_whole(self, tmp_path, monkeypatch):
        import os

        import repro._atomic as atomic

        camp = Campaign.create(tmp_path / "c", name="s")
        old = MeasurementSet(values=np.arange(8.0), unit="us", name="d")
        camp.record(old)
        file = camp.path / "d.json"
        before = file.read_bytes()

        def broken(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(atomic.os, "replace", broken)
        with pytest.raises(OSError, match="disk gone"):
            camp.record(MeasurementSet(values=np.arange(8.0) + 1, unit="us",
                                       name="d"), overwrite=True)
        monkeypatch.setattr(atomic.os, "replace", os.replace)
        assert file.read_bytes() == before
        assert sorted(p.name for p in camp.path.iterdir()) == ["campaign.json", "d.json"]
        assert np.array_equal(Campaign.open(camp.path).load("d").values, old.values)

    def test_loaded_metadata_equals_the_run(self, tmp_path):
        from repro.exec import ExecHooks
        from repro.obs import Tracer

        camp = Campaign.create(tmp_path / "c", name="s")
        for overwrite in (False, True):
            tracer = Tracer()
            res = camp.run(make_shifted_experiment(), hooks=ExecHooks(),
                           tracer=tracer, overwrite=overwrite)
            reader = Campaign.open(camp.path)
            for ms in res.datasets.values():
                md = reader.load(ms.name).metadata
                assert md == ms.metadata
                prov = md["provenance"]
                assert prov["trace_id"] == tracer.trace_id
                assert prov["created_at"] and "argv" in prov["environment"]["extra"]
                assert prov["exec_stats"] == ms.metadata["provenance"]["exec_stats"]
                assert ("exec" in md) == overwrite  # cached_tasks on the rerun
        # Loaded sets share no run-field object with each other.
        a, b = (reader.load(ms.name) for ms in list(res.datasets.values())[:2])
        a.metadata["provenance"]["exec_stats"]["cached"] = -1
        assert b.metadata["provenance"]["exec_stats"]["cached"] != -1
        assert reader.load(a.name).metadata["provenance"]["exec_stats"]["cached"] != -1

    def test_dataset_files_hold_no_run_fields(self, tmp_path):
        import json

        camp = Campaign.create(tmp_path / "c", name="s")
        camp.run(make_shifted_experiment())
        for d in camp._read_datasets():
            md = json.loads((camp.path / d["file"]).read_text())["metadata"]
            prov = md["provenance"]
            assert "exec" not in md
            assert not {"created_at", "exec_stats", "cache_stats", "trace_id"} & set(prov)
            assert "argv" not in prov["environment"]["extra"]
            assert prov["master_seed"] == 11

    def test_runs_json_parsed_once_until_it_changes(self, tmp_path, monkeypatch):
        import repro.report.export as export

        camp = Campaign.create(tmp_path / "c", name="s")
        camp.run(make_shifted_experiment())
        parsed = []
        real = export.runs_from_json

        def counting(raw):
            parsed.append(raw)
            return real(raw)

        monkeypatch.setattr(export, "runs_from_json", counting)
        reader = Campaign.open(camp.path)
        for name in reader.names():
            reader.load(name)
        assert len(parsed) == 1
        camp.run(make_shifted_experiment(), overwrite=True)
        before = len(parsed)
        for name in reader.names():
            reader.load(name)
        assert len(parsed) == before + 1

    def test_inline_campaign_loads_then_migrates_once(self, tmp_path):
        res = make_shifted_experiment().run()
        camp = write_inline_campaign(tmp_path / "c", res)
        for ms in res.datasets.values():
            assert camp.load(ms.name).metadata == ms.metadata
        files = sorted(d["file"] for d in camp._read_datasets())
        before = snapshot(camp.path)
        camp.run(make_shifted_experiment(), overwrite=True)
        first = snapshot(camp.path)
        # The first run in this directory also fills the result cache.
        assert [f for f in changed_files(before, first)
                if not f.startswith("cache/")] == sorted(
            ["campaign.json", "runs.json", *files])
        camp.run(make_shifted_experiment(), overwrite=True)
        assert changed_files(first, snapshot(camp.path)) == ["runs.json"]

    @pytest.mark.parametrize("metadata", [
        {},
        {"machine": "x"},
        {"exec": {"cached_tasks": 2}},
        {"provenance": {"master_seed": 1}},
        {"provenance": {"created_at": "T", "trace_id": None,
                        "environment": {"extra": {}}}},
        {"provenance": {"created_at": "T", "exec_stats": {"completed": 4},
                        "environment": {"memory": "m",
                                        "extra": {"argv": "a b", "k": 1}}},
         "exec": {"failed_reps": [{"rep": 0, "error": "e"}]}, "design": "d"},
    ])
    def test_run_fields_round_trip(self, metadata):
        from repro.report.export import (
            merge_run_fields,
            runs_from_json,
            runs_to_json,
            split_run_fields,
        )

        pure, run = split_run_fields(metadata)
        back = runs_from_json(runs_to_json({"a": run, "b": run}))
        assert back == {"a": run, "b": run}
        assert merge_run_fields(pure, back["a"]) == metadata
        assert split_run_fields(pure) == (pure, {})

    def test_rerecording_repairs_a_damaged_file(self, tmp_path):
        from repro.errors import IntegrityError

        camp = Campaign.create(tmp_path / "c", name="s")
        ms = MeasurementSet(values=np.arange(8.0), unit="us", name="d")
        camp.record(ms)
        file = camp.path / "d.json"
        file.write_bytes(file.read_bytes() + b" ")
        with pytest.raises(IntegrityError):
            camp.load("d")
        camp.record(ms, overwrite=True)
        assert np.array_equal(camp.load("d").values, ms.values)
