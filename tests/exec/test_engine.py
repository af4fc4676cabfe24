"""Tests for the campaign execution engine (:mod:`repro.exec`).

The measurement callables used with :class:`ProcessExecutor` are
module-level on purpose: tasks cross the process boundary by pickling.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import Experiment, Factor, FactorialDesign
from repro.errors import ValidationError
from repro.exec import (
    ExecHooks,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    make_tasks,
    run_measurement_tasks,
    spawn_task_seeds,
    task_fingerprint,
)


# -- module-level measure functions (picklable) ----------------------------


def seeded_measure(point, rep, rng):
    """Stochastic measurement driven entirely by the engine-derived rng."""
    return rng.normal(loc=float(point["x"]), scale=0.1, size=5)


def legacy_measure(point, rep):
    """Two-argument callable: the pre-engine contract."""
    return float(point["x"]) + rep


def failing_measure(point, rep, rng):
    """Fails permanently for one design point, succeeds elsewhere."""
    if point["x"] == 2:
        raise RuntimeError("sensor unplugged")
    return rng.normal(size=3)


def crashing_measure(point, rep, rng):
    """Kills the worker process outright (simulates a segfault)."""
    if point["x"] == 1:
        os._exit(13)
    return rng.normal(size=3)


def sleepy_measure(point, rep, rng):
    """Never finishes within any reasonable timeout."""
    time.sleep(60.0)
    return np.zeros(1)


def hol_worker(item):
    """Head-of-line scenario worker (generic executor contract).

    ``always-fail`` items fail instantly on every attempt; ``slow-once``
    items sleep, fail their first attempt, and succeed on the second
    (the sentinel file crosses the process boundary).
    """
    if item["kind"] == "always-fail":
        raise RuntimeError("boom")
    if os.path.exists(item["sentinel"]):
        return "ok"
    with open(item["sentinel"], "w") as fh:
        fh.write("x")
    time.sleep(2.0)
    raise RuntimeError("slow first attempt")


def innocent_worker(item):
    """Timeout-isolation worker: ``stuck`` never returns; ``victim``
    finishes well inside the timeout, on another worker."""
    if item["kind"] == "stuck":
        time.sleep(60.0)
    time.sleep(0.2)
    return "ok"


def _always_raise(item):
    raise RuntimeError("permanent")


def make_exp(measure=seeded_measure, levels=(0, 1, 2, 3), reps=2, **kw):
    return Experiment(
        name="engine-test",
        design=FactorialDesign((Factor("x", tuple(levels)),), replications=reps),
        measure=measure,
        **kw,
    )


class FlakyMeasure:
    """Raises on its first *fail_times* calls, then succeeds (serial only)."""

    def __init__(self, fail_times: int) -> None:
        self.fail_times = fail_times
        self.calls = 0

    def __call__(self, point, rep, rng):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise OSError("transient glitch")
        return rng.normal(size=4)


class TestSeeding:
    def test_spawn_is_deterministic(self):
        a = spawn_task_seeds(42, 5)
        b = spawn_task_seeds(42, 5)
        for sa, sb in zip(a, b):
            va = np.random.default_rng(sa).random(8)
            vb = np.random.default_rng(sb).random(8)
            assert np.array_equal(va, vb)

    def test_distinct_tasks_distinct_streams(self):
        seeds = spawn_task_seeds(42, 3)
        draws = [np.random.default_rng(s).random(8) for s in seeds]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])


class TestSeedingContract:
    """Executor-independent seeding facts; the executor-matrix identity
    and order-independence tests live in the conformance harness
    (``tests/exec/test_conformance.py``)."""

    def test_different_master_seed_changes_values(self):
        a = make_exp(seed=1).run()
        b = make_exp(seed=2).run()
        key = next(iter(a.datasets))
        assert not np.array_equal(a.datasets[key].values, b.datasets[key].values)

    def test_legacy_two_arg_measure_still_works(self):
        res = make_exp(measure=legacy_measure, reps=2).run(
            executor=ProcessExecutor(max_workers=2)
        )
        assert np.array_equal(np.sort(res.get(x=3).values), [3.0, 4.0])


class TestCaching:
    """Task-level cache mechanics; the whole-experiment cache round trip
    is part of the conformance harness."""

    def test_cache_preserves_task_metadata(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = make_tasks("w", [({"x": 1}, 0)], seeded_measure, master_seed=3)
        fresh = run_measurement_tasks(tasks, cache=cache)[0]
        again = run_measurement_tasks(tasks, cache=cache)[0]
        assert again.cached and not fresh.cached
        assert again.metadata["attempts"] == fresh.metadata["attempts"] == 1
        assert "wall_time_s" in again.metadata
        assert np.array_equal(fresh.values, again.values)

    def test_seed_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        hooks = ExecHooks()
        run_measurement_tasks(
            make_tasks("w", [({"x": 1}, 0)], seeded_measure, master_seed=3),
            cache=cache, hooks=hooks,
        )
        run_measurement_tasks(
            make_tasks("w", [({"x": 1}, 0)], seeded_measure, master_seed=4),
            cache=cache, hooks=hooks,
        )
        assert hooks.cached == 0 and hooks.completed == 2
        assert len(cache) == 2

    def test_methodology_change_invalidates(self):
        fp1 = task_fingerprint("w", {"x": 1}, (0, 0), {"stopping": "n=30"})
        fp2 = task_fingerprint("w", {"x": 1}, (0, 0), {"stopping": "n=50"})
        fp3 = task_fingerprint("w", {"x": 2}, (0, 0), {"stopping": "n=30"})
        assert len({fp1, fp2, fp3}) == 3
        assert fp1 == task_fingerprint("w", {"x": 1}, (0, 0), {"stopping": "n=30"})

    def test_torn_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = task_fingerprint("w", {"x": 1}, (0, 0), {})
        path = cache.put(fp, np.array([1.0]), {})
        path.write_text("{not json")
        assert cache.get(fp) is None


class TestFaultTolerance:
    """Engine-specific failure paths; generic retry/surfacing behaviour
    is asserted per executor by the conformance harness."""

    def test_retry_metadata_reaches_task_results(self):
        measure = FlakyMeasure(fail_times=1)
        hooks = ExecHooks()
        tasks = make_tasks("w", [({"x": 1}, 0)], measure, master_seed=0)
        res = run_measurement_tasks(
            tasks, executor=SerialExecutor(retries=2, backoff=0.0), hooks=hooks
        )[0]
        assert res.ok and res.metadata["attempts"] == 2
        assert hooks.retried == 1 and hooks.failed == 0

    def test_partial_point_failure_recorded_in_metadata(self):
        # x=2 fails every rep; the other points survive.  With zero
        # surviving values for x=2 the run must raise, so give x=2 one
        # succeeding rep via a measure that fails only on rep 0.
        def half_failing(point, rep, rng):
            if point["x"] == 2 and rep == 0:
                raise RuntimeError("boom")
            return rng.normal(size=3)

        exp = make_exp(measure=half_failing, reps=2)
        res = exp.run(executor=SerialExecutor(retries=0))
        ms = res.get(x=2)
        assert ms.n == 3  # one rep's worth of values survived
        failed = ms.metadata["exec"]["failed_reps"]
        assert failed[0]["rep"] == 0 and "boom" in failed[0]["error"]
        assert res.get(x=1).n == 6

    def test_all_reps_failing_raises(self):
        exp = make_exp(measure=failing_measure, levels=(1, 2), reps=1)
        with pytest.raises(Exception, match="sensor unplugged|no values"):
            exp.run(executor=SerialExecutor(retries=0))

    def test_worker_crash_is_retried_and_recorded(self):
        hooks = ExecHooks()
        tasks = make_tasks(
            "w", [({"x": 0}, 0), ({"x": 1}, 0)], crashing_measure, master_seed=0
        )
        results = run_measurement_tasks(
            tasks,
            executor=ProcessExecutor(max_workers=1, retries=1, backoff=0.0),
            hooks=hooks,
        )
        ok = {dict(r.task.point)["x"]: r for r in results}
        assert ok[0].ok
        assert not ok[1].ok and "crashed" in ok[1].error
        assert ok[1].attempts == 2
        assert hooks.failed == 1

    def test_timeout_is_enforced_and_surfaced(self):
        tasks = make_tasks("w", [({"x": 0}, 0)], sleepy_measure, master_seed=0)
        start = time.monotonic()
        res = run_measurement_tasks(
            tasks,
            executor=ProcessExecutor(
                max_workers=1, timeout=0.5, retries=0, backoff=0.0
            ),
        )[0]
        assert time.monotonic() - start < 30.0
        assert not res.ok and "timeout" in res.error


class TestHooksAndValidation:
    def test_hooks_event_stream(self):
        events = []
        hooks = ExecHooks(on_event=lambda event, label: events.append(event))
        make_exp(reps=1, levels=(0, 1)).run(hooks=hooks)
        assert events.count("submitted") == 2
        assert events.count("completed") == 2
        assert hooks.snapshot()["completed"] == 2
        assert sum(hooks.task_seconds.values()) >= 0.0
        assert "completed 2" in hooks.describe()

    def test_unknown_hook_event_rejected(self):
        with pytest.raises(ValueError):
            ExecHooks().record("exploded")

    def test_unhashable_factor_value_named_in_error(self):
        res = make_exp(reps=1).run()
        with pytest.raises(ValidationError, match="factor 'x'.*unhashable"):
            res.get(x=[1, 2])

    def test_executor_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            ProcessExecutor(max_workers=0)
        with pytest.raises(ValidationError):
            ProcessExecutor(timeout=-1.0)
        with pytest.raises(ValidationError):
            SerialExecutor(retries=-1)


class TestTimeoutIsolation:
    def test_sibling_never_charged_for_anothers_timeout(self, tmp_path):
        """A timeout severs only the worker running the stuck task.

        An innocent sibling in flight on another worker finishes there:
        one attempt, no retry event, and exactly one ``submitted`` event
        per task — the timeout was not its fault.
        """
        events: list[tuple[str, str]] = []
        hooks = ExecHooks(on_event=lambda ev, label: events.append((ev, label)))
        executor = ProcessExecutor(
            max_workers=2, timeout=1.0, retries=0, backoff=0.0
        )
        items = [{"kind": "stuck"}, {"kind": "victim"}]
        outcomes = executor.run(
            innocent_worker, items, labels=["stuck", "victim"], hooks=hooks
        )
        # The stuck task is charged its timeout...
        assert not outcomes[0].ok and "timeout" in outcomes[0].error
        assert outcomes[0].attempts == 1
        # ...the innocent sibling is not: one attempt, no retry event.
        assert outcomes[1].ok and outcomes[1].value == "ok"
        assert outcomes[1].attempts == 1
        assert ("retried", "victim") not in events
        # And "submitted" fires once per task.
        assert events.count(("submitted", "victim")) == 1
        assert events.count(("submitted", "stuck")) == 1


class TestSchedulerFairness:
    def test_pop_ready_scans_past_backoff_head(self):
        """The ledger's one pop rule: a head entry still in backoff must
        not hide ready entries queued behind it."""
        from repro.exec.engine import _Ledger

        ledger = _Ledger(SerialExecutor(retries=2, backoff=10.0, max_backoff=20.0),
                         ["a", "b", "c"], ExecHooks())
        ledger.connect("w")
        assert ledger.dispatch(0.0) == [("w", 0, 1)]
        ledger.result("w", 0, 1, 0.0, error="boom")  # a's retry: ready at 10
        assert ledger.dispatch(1.5) == [("w", 1, 1)]  # scans past it
        ledger.result("w", 1, 1, 1.5, error="boom")  # b's retry: ready at 11.5
        assert ledger.dispatch(1.5) == [("w", 2, 1)]
        ledger.result("w", 2, 1, 1.5, value="ok")
        assert ledger.dispatch(1.5) == []
        assert ledger.wake_at() == 10.0
        assert ledger.dispatch(10.0) == [("w", 0, 2)]

    def test_long_backoff_head_does_not_stall_ready_retries(
        self, tmp_path, fake_clock
    ):
        """Regression: the submit loop only inspected ``pending[0]``, so a
        task sitting in a long retry backoff at the head of the queue
        stalled *ready* retries queued behind it.

        Task A fails instantly on every attempt, so after two failures it
        sits at the queue head with a long (2x'd) backoff.  Task B fails
        once after sleeping, lands *behind* A with a shorter backoff, and
        must be rerun as soon as its own deadline passes — not A's.
        Event times are read off the scheduler's (virtual) clock, so the
        assertion is exact rather than a wall-margin guess.
        """
        executor = ProcessExecutor(
            max_workers=2, retries=2, backoff=1.5, max_backoff=10.0
        )
        seen: dict[tuple[str, str], float] = {}
        hooks = ExecHooks(
            on_event=lambda ev, label: seen.setdefault((ev, label), fake_clock.t)
        )
        items = [
            {"kind": "always-fail"},
            {"kind": "slow-once", "sentinel": str(tmp_path / "sentinel")},
        ]
        outcomes = executor.run(hol_worker, items, labels=["A", "B"], hooks=hooks)
        assert not outcomes[0].ok and outcomes[0].attempts == 3
        assert outcomes[1].ok and outcomes[1].attempts == 2
        # B's retry deadline is backoff (1.5 s) after its failure; A's
        # second backoff is 3.0 s and ends later.  With the head-of-line
        # bug, B's rerun waited for A's deadline; with the scan it starts
        # at B's own deadline (one scheduler tick of slack on the virtual
        # clock, which only advances while the scheduler is idle).
        waited = seen[("completed", "B")] - seen[("retried", "B")]
        assert waited <= 1.5 + 2 * executor._TICK, (
            f"ready retry stalled behind backoff head ({waited:.2f}s virtual)"
        )


class TestBackoffSchedule:
    def test_serial_backoff_is_exponential_and_capped(self, fake_clock):
        """The retry schedule, exactly: backoff * 2**(k-1), capped."""
        executor = SerialExecutor(retries=3, backoff=0.5, max_backoff=2.0)
        outcomes = executor.run(_always_raise, ["only"])
        assert not outcomes[0].ok and outcomes[0].attempts == 4
        assert fake_clock.sleeps == [0.5, 1.0, 2.0]

    def test_flaky_task_stops_sleeping_once_it_succeeds(self, fake_clock, tmp_path):
        from .conformance import SentinelFlaky

        executor = SerialExecutor(retries=3, backoff=0.25, max_backoff=2.0)
        outcomes = executor.run(SentinelFlaky(tmp_path), [3])
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert fake_clock.sleeps == [0.25]
