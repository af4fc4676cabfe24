"""Tests for experiment orchestration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Experiment, Factor, FactorialDesign, from_machine
from repro.errors import DesignError, ValidationError
from repro.simsys import PiWorkload, piz_daint


def make_experiment(reps=3):
    pi = PiWorkload(piz_daint(), seed=5)
    return Experiment(
        name="pi-scaling",
        design=FactorialDesign((Factor("p", (1, 2, 4)),), replications=reps),
        measure=lambda point, rep: pi.run(point["p"], 4),
        unit="s",
        environment=from_machine(piz_daint(), input_desc="pi", measurement_desc="sim"),
    )


class TestExperiment:
    def test_collects_all_points(self):
        res = make_experiment().run()
        assert len(res.datasets) == 3
        assert {d["p"] for d in res.points()} == {1, 2, 4}

    def test_replications_accumulate(self):
        res = make_experiment(reps=3).run()
        ms = res.get(p=1)
        assert ms.n == 3 * 4  # replications x samples per call

    def test_get_unknown_point(self):
        res = make_experiment().run()
        with pytest.raises(ValidationError):
            res.get(p=64)

    def test_series_ordering(self):
        res = make_experiment().run()
        levels, values = res.series("p")
        assert levels == [1, 2, 4]
        assert values[0] > values[1] > values[2]  # scaling reduces time

    def test_series_requires_single_factor(self):
        pi = PiWorkload(piz_daint())
        exp = Experiment(
            name="two-factor",
            design=FactorialDesign(
                (Factor("p", (1, 2)), Factor("size", (64, 128))),
            ),
            measure=lambda point, rep: 1.0,
        )
        res = exp.run()
        with pytest.raises(ValidationError):
            res.series("p")

    def test_scalar_measure_accepted(self):
        exp = Experiment(
            name="scalar",
            design=FactorialDesign((Factor("x", (1,)),)),
            measure=lambda point, rep: 42.0,
        )
        res = exp.run()
        assert res.get(x=1).values.tolist() == [42.0]

    def test_empty_measure_rejected(self):
        exp = Experiment(
            name="empty",
            design=FactorialDesign((Factor("x", (1,)),)),
            measure=lambda point, rep: np.array([]),
        )
        with pytest.raises(DesignError):
            exp.run()

    def test_run_order_recorded_and_randomized(self):
        res = make_experiment(reps=4).run()
        assert len(res.run_order) == 12
        # Not all replications of the same point adjacent (randomization).
        firsts = [dict(k)["p"] for k in res.run_order]
        assert firsts != sorted(firsts)

    def test_describe_mentions_environment(self):
        text = make_experiment().run().describe()
        assert "environment documented: 9/9" in text
        assert "pi-scaling" in text


def seeded_measure(point, rep, rng):
    return rng.normal(loc=float(point["p"]), size=4)


class TestExperimentEngineSeam:
    def test_unhashable_factor_value_names_factor(self):
        res = make_experiment().run()
        with pytest.raises(ValidationError, match="factor 'p'"):
            res.get(p=[1, 2])

    def test_unhashable_value_in_second_factor(self):
        from repro.core.experiment import _point_key

        with pytest.raises(ValidationError, match="factor 'placement'"):
            _point_key({"p": 4, "placement": {"packed"}})

    def test_executor_field_is_default_engine(self):
        from repro.exec import ExecHooks, SerialExecutor

        hooks = ExecHooks()
        exp = Experiment(
            name="seeded",
            design=FactorialDesign((Factor("p", (1, 2)),), replications=2),
            measure=seeded_measure,
            executor=SerialExecutor(retries=0),
            seed=7,
        )
        res = exp.run(hooks=hooks)
        assert hooks.completed == 4
        assert res.get(p=1).n == 8

    def test_run_executor_overrides_field(self):
        from repro.exec import ExecHooks, SerialExecutor

        exp = Experiment(
            name="seeded",
            design=FactorialDesign((Factor("p", (1, 2)),)),
            measure=seeded_measure,
            executor=SerialExecutor(retries=0),
        )
        hooks = ExecHooks()
        exp.run(executor=SerialExecutor(retries=5), hooks=hooks)
        assert hooks.completed == 2

    def test_master_seed_defaults_to_order_seed(self):
        def exp(**kw):
            return Experiment(
                name="seeded",
                design=FactorialDesign((Factor("p", (1, 2)),)),
                measure=seeded_measure,
                **kw,
            )

        a = exp(order_seed=3).run()
        b = exp(order_seed=3, seed=3).run()
        c = exp(order_seed=3, seed=4).run()
        key = next(iter(a.datasets))
        assert np.array_equal(a.datasets[key].values, b.datasets[key].values)
        assert not np.array_equal(a.datasets[key].values, c.datasets[key].values)


def rep0_failing_measure(point, rep, rng):
    if point["p"] == 2 and rep == 0:
        raise RuntimeError("boom")
    return rng.normal(size=3)


def point_failing_measure(point, rep, rng):
    if point["p"] == 2:
        raise RuntimeError("dead point")
    return rng.normal(size=3)


class FlakyOnce:
    """Fails its first call, then succeeds (serial executors only)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, point, rep, rng):
        self.calls += 1
        if self.calls == 1:
            raise OSError("transient")
        return rng.normal(size=3)


class TestFailureEnvelopes:
    def _exp(self, measure, reps=2):
        return Experiment(
            name="envelopes",
            design=FactorialDesign((Factor("p", (1, 2)),), replications=reps),
            measure=measure,
            seed=3,
        )

    def test_every_point_gets_an_envelope(self):
        res = self._exp(seeded_measure).run()
        assert len(res.envelopes) == 2
        assert all(e.state == "ok" for e in res.envelopes.values())
        env = res.envelopes[next(iter(res.envelopes))]
        assert env.replications == 2 and env.reps_ok == 2
        # Clean runs carry no envelope noise in dataset metadata.
        assert "exec" not in next(iter(res.datasets.values())).metadata

    def test_annotate_mode_completes_with_dead_point(self):
        from repro.exec import SerialExecutor

        res = self._exp(point_failing_measure).run(
            executor=SerialExecutor(retries=0), on_failure="annotate"
        )
        keys = {dict(k)["p"]: k for k in res.envelopes}
        assert res.envelopes[keys[2]].state == "failed"
        assert keys[2] not in res.datasets  # no empty dataset leaks out
        assert res.envelopes[keys[1]].state == "ok"
        assert keys[1] in res.datasets
        failed = res.envelopes[keys[2]].failed_reps
        assert len(failed) == 2 and all("dead point" in err for _, err in failed)

    def test_raise_mode_still_raises(self):
        from repro.exec import SerialExecutor

        with pytest.raises(Exception, match="dead point|no values"):
            self._exp(point_failing_measure).run(executor=SerialExecutor(retries=0))

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValidationError, match="on_failure"):
            self._exp(seeded_measure).run(on_failure="ignore")

    def test_degraded_state_and_metadata(self):
        from repro.exec import SerialExecutor

        res = self._exp(rep0_failing_measure).run(executor=SerialExecutor(retries=0))
        keys = {dict(k)["p"]: k for k in res.envelopes}
        env = res.envelopes[keys[2]]
        assert env.state == "degraded" and env.reps_ok == 1
        assert res.datasets[keys[2]].metadata["exec"]["envelope"] == "degraded"
        assert res.envelopes[keys[1]].state == "ok"

    def test_recovered_state_after_retry(self):
        from repro.exec import SerialExecutor

        exp = Experiment(
            name="envelopes",
            design=FactorialDesign((Factor("p", (1,)),), replications=2),
            measure=FlakyOnce(),
            seed=3,
        )
        res = exp.run(executor=SerialExecutor(retries=2, backoff=0.0))
        env = next(iter(res.envelopes.values()))
        assert env.state == "recovered"
        assert env.retried_attempts == 1 and env.reps_ok == 2
        md = next(iter(res.datasets.values())).metadata
        assert md["exec"]["envelope"] == "recovered"
        assert md["exec"]["retried_attempts"] == 1

    def test_degradation_surfaced_in_metrics_and_provenance(self):
        from repro.exec import ExecHooks, SerialExecutor
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        hooks = ExecHooks(metrics=registry)
        res = self._exp(point_failing_measure).run(
            executor=SerialExecutor(retries=0),
            hooks=hooks,
            on_failure="annotate",
        )
        assert registry.get("repro_chaos_points_failed_total").value == 1
        assert registry.get("repro_chaos_points_recovered_total").value == 0
        md = next(iter(res.datasets.values())).metadata
        assert md["provenance"]["exec_stats"]["degradation"]["failed"] == 1

    def test_envelope_to_dict_is_json_ready(self):
        import json

        res = self._exp(seeded_measure).run()
        payload = [e.to_dict() for e in res.envelopes.values()]
        parsed = json.loads(json.dumps(payload))
        assert {e["state"] for e in parsed} == {"ok"}
        assert sorted(e["point"]["p"] for e in parsed) == [1, 2]


# -- point assembly: values move as float64 arrays -----------------------


def _per_value_points(results):
    """Reference: the per-value Python loop points were assembled with
    before values moved as arrays (``float(v)`` per value, then one
    ``np.asarray`` of the list)."""
    vals: list[float] = []
    for res in results:
        if res.ok:
            vals.extend(float(v) for v in res.values)
    return np.asarray(vals)


def ndarray_measure(point, rep, rng):
    return rng.lognormal(size=5)


def float32_measure(point, rep, rng):
    return rng.normal(size=5).astype(np.float32)


def int_list_measure(point, rep, rng):
    return [int(v) for v in rng.integers(-(2**53), 2**53, size=5)]


def list_measure(point, rep, rng):
    return [float(v) for v in rng.normal(scale=1e-300, size=5)]


def spill_measure(point, rep, rng):
    return rng.lognormal(size=150)


def _value_bytes(result):
    return {
        key: (ms.values.dtype.str, ms.values.tobytes())
        for key, ms in result.datasets.items()
    }


class TestPointValuesByteIdentity:
    """``Experiment.run`` builds each point from arrays, never per value,
    and the bytes equal those of the per-value loop."""

    def _exp(self, measure, reps=3):
        return Experiment(
            name="bytes",
            design=FactorialDesign((Factor("p", (1, 2, 3)),), replications=reps),
            measure=measure,
            seed=11,
        )

    @pytest.mark.parametrize(
        "measure",
        [ndarray_measure, float32_measure, int_list_measure, list_measure],
        ids=["ndarray", "float32", "int-list", "list"],
    )
    def test_matches_the_per_value_loop(self, measure, monkeypatch):
        import repro.core.experiment as experiment_mod

        new = self._exp(measure).run()
        monkeypatch.setattr(experiment_mod, "point_values", _per_value_points)
        old = self._exp(measure).run()
        assert _value_bytes(new) == _value_bytes(old)
        assert all(ms.values.dtype == np.float64 for ms in new.datasets.values())

    def test_spilled_cache_hit_matches_the_per_value_loop(self, tmp_path, monkeypatch):
        import repro.core.experiment as experiment_mod
        from repro.core import Campaign
        from repro.exec import ExecHooks

        camp = Campaign.create(tmp_path / "camp", name="bytes")
        cold = camp.run(self._exp(spill_measure), spill_rows=100)
        hooks = ExecHooks()
        new = camp.run(
            self._exp(spill_measure), hooks=hooks, overwrite=True, spill_rows=100
        )
        assert hooks.cached == 9 and hooks.completed == 0
        monkeypatch.setattr(experiment_mod, "point_values", _per_value_points)
        old = camp.run(self._exp(spill_measure), overwrite=True, spill_rows=100)
        assert _value_bytes(new) == _value_bytes(old) == _value_bytes(cold)
        for ms in new.datasets.values():
            assert type(ms.values) is np.ndarray  # not a cache memmap

    def test_point_values_of_mixed_results(self, tmp_path):
        from repro.exec.engine import TaskResult, point_values
        from repro.store import ShardStore

        store = ShardStore(tmp_path / "store")
        store.append("a" * 32, np.linspace(0.5, 2.5, 7))
        mapped, _ = store.get("a" * 32)
        assert isinstance(mapped, np.memmap)
        results = [
            TaskResult(task=None, values=mapped, ok=True),
            TaskResult(task=None, values=np.arange(3, dtype=np.float32) / 3, ok=True),
            TaskResult(task=None, values=None, ok=False, error="boom"),
            TaskResult(task=None, values=[4, 5, -6], ok=True),
            TaskResult(task=None, values=[0.1, 1e-310], ok=True),
        ]
        got = point_values(results)
        want = _per_value_points(results)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert type(got) is np.ndarray and not np.shares_memory(got, mapped)
        assert point_values([results[2]]).size == 0

    def test_annotate_point_without_values_is_dropped(self):
        from repro.exec import SerialExecutor

        exp = Experiment(
            name="bytes",
            design=FactorialDesign((Factor("p", (1, 2)),), replications=2),
            measure=point_failing_measure,
            seed=3,
        )
        res = exp.run(executor=SerialExecutor(retries=0), on_failure="annotate")
        keys = {dict(k)["p"]: k for k in res.envelopes}
        assert keys[2] not in res.datasets
        assert res.envelopes[keys[2]].state == "failed"
        assert res.envelopes[keys[2]].reps_ok == 0
        assert res.datasets[keys[1]].n == 6

    def test_spilled_rerun_indexes_each_memmap_once(self, tmp_path, monkeypatch):
        """A cache-hit rerun slices each task's column once; it never
        walks a memmap value by value."""
        from repro.core import Campaign
        from repro.exec import ExecHooks

        camp = Campaign.create(tmp_path / "camp", name="bytes")
        camp.run(self._exp(spill_measure), spill_rows=100)
        calls = []
        getitem = np.memmap.__getitem__

        def counting(self, index):
            calls.append(index)
            return getitem(self, index)

        monkeypatch.setattr(np.memmap, "__getitem__", counting)
        hooks = ExecHooks()
        camp.run(self._exp(spill_measure), hooks=hooks, overwrite=True, spill_rows=100)
        assert hooks.cached == 9
        assert 0 < len(calls) <= hooks.cached
