"""Tests for the fault injectors (executor, cache, machine, clock)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    ChaosExecutor,
    ChaosResultCache,
    FaultPlan,
    FaultProfile,
    faulty_clock,
    get_profile,
    perturbed_machine,
)
from repro.errors import ValidationError
from repro.exec import ExecHooks, ProcessExecutor, SerialExecutor
from repro.obs import MetricsRegistry
from repro.simsys import SimClock, testbed as _testbed

ALL_CRASH = FaultPlan(FaultProfile(name="all-crash", crash_p=1.0), seed=0)
ALL_HANG = FaultPlan(
    FaultProfile(name="all-hang", hang_p=1.0, hang_s=0.01), seed=0
)


def square(x):
    return x * x


class TestChaosExecutor:
    def test_planted_crash_recovers_on_retry(self, tmp_path):
        ex = ChaosExecutor(SerialExecutor(retries=1, backoff=0.0), ALL_CRASH, tmp_path)
        outcomes = ex.run(square, [2, 3, 4])
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [4, 9, 16]
        # Every task crashed once and succeeded on the clean retry.
        assert all(o.attempts == 2 for o in outcomes)
        assert ex.injected == {"crash": 3, "hang": 0, "kill": 0, "partition": 0,
                               "slow": 0}

    def test_fault_fires_once_per_label_across_runs(self, tmp_path):
        ex = ChaosExecutor(SerialExecutor(retries=1, backoff=0.0), ALL_CRASH, tmp_path)
        ex.run(square, [2], labels=["t"])
        again = ex.run(square, [2], labels=["t"])
        # Marker already claimed: the second run sees no fault at all.
        assert again[0].attempts == 1
        assert ex.injected["crash"] == 1

    def test_no_retries_surfaces_the_planted_fault(self, tmp_path):
        ex = ChaosExecutor(SerialExecutor(retries=0), ALL_CRASH, tmp_path)
        outcomes = ex.run(square, [2])
        assert not outcomes[0].ok
        assert "planted worker crash" in outcomes[0].error

    def test_hang_delays_but_does_not_change_values(self, tmp_path):
        ex = ChaosExecutor(SerialExecutor(retries=0), ALL_HANG, tmp_path)
        outcomes = ex.run(square, [5])
        assert outcomes[0].ok and outcomes[0].value == 25
        assert ex.injected == {"crash": 0, "hang": 1, "kill": 0, "partition": 0,
                               "slow": 0}

    def test_injection_counts_reach_metrics(self, tmp_path):
        registry = MetricsRegistry()
        hooks = ExecHooks()
        registry.bind_exec_hooks(hooks)
        ex = ChaosExecutor(SerialExecutor(retries=1, backoff=0.0), ALL_CRASH, tmp_path)
        ex.run(square, [1, 2], hooks=hooks)
        assert registry.get("repro_chaos_crashes_injected_total").value == 2

    def test_exit_mode_requires_process_executor(self, tmp_path):
        plan = FaultPlan(FaultProfile(name="hard", crash_p=1.0, crash_mode="exit"))
        with pytest.raises(ValidationError, match="ProcessExecutor"):
            ChaosExecutor(SerialExecutor(), plan, tmp_path)
        # The process pool variant is accepted.
        ChaosExecutor(ProcessExecutor(max_workers=1), plan, tmp_path)

    @pytest.mark.parametrize("fault", ["net_kill_p", "net_partition_p"])
    def test_worker_killing_socket_faults_require_process_executor(self, tmp_path,
                                                                   fault):
        plan = FaultPlan(FaultProfile(name="net", **{fault: 1.0}))
        with pytest.raises(ValidationError, match="kills worker processes"):
            ChaosExecutor(SerialExecutor(), plan, tmp_path)

    def test_slow_link_runs_in_process(self, tmp_path):
        # A slow link only delays the reply: no worker process needed.
        plan = FaultPlan(FaultProfile(name="slow", net_slow_p=1.0, net_slow_s=0.01))
        ex = ChaosExecutor(SerialExecutor(retries=0), plan, tmp_path)
        outcomes = ex.run(square, [5])
        assert outcomes[0].ok and outcomes[0].value == 25
        assert outcomes[0].attempts == 1 and outcomes[0].wall_time >= 0.01
        assert ex.injected["slow"] == 1

    def test_task_and_socket_faults_fire_independently(self, tmp_path):
        # Same label, two fault domains: the crash burns the first
        # attempt, the slow link still fires on the second.
        plan = FaultPlan(FaultProfile(name="both", crash_p=1.0, net_slow_p=1.0,
                                      net_slow_s=0.01))
        ex = ChaosExecutor(SerialExecutor(retries=1, backoff=0.0), plan, tmp_path)
        (outcome,) = ex.run(square, [3], labels=["t"])
        assert outcome.ok and outcome.value == 9 and outcome.attempts == 2
        assert ex.injected["crash"] == 1 and ex.injected["slow"] == 1
        assert len(list(tmp_path.iterdir())) == 2  # one marker per domain

    def test_same_plan_same_fates_in_separate_state_dirs(self, tmp_path):
        plan = FaultPlan(FaultProfile(name="half", crash_p=0.5), seed=9)
        labels = [f"t{i}" for i in range(12)]
        a = ChaosExecutor(SerialExecutor(retries=1, backoff=0.0), plan, tmp_path / "a")
        b = ChaosExecutor(SerialExecutor(retries=1, backoff=0.0), plan, tmp_path / "b")
        ra = a.run(square, list(range(12)), labels=labels)
        rb = b.run(square, list(range(12)), labels=labels)
        assert [o.attempts for o in ra] == [o.attempts for o in rb]
        assert a.injected == b.injected


class TestChaosResultCache:
    PLAN = FaultPlan(FaultProfile(name="rot", cache_corrupt_p=1.0), seed=0)
    FP = "ab" * 16

    def test_corruption_is_detected_never_served(self, tmp_path):
        cache = ChaosResultCache(tmp_path, self.PLAN)
        cache.put(self.FP, np.array([1.0, 2.0]))
        assert cache.get(self.FP) is None  # rotted, then caught by verification
        assert cache.corrupt_entries == 1
        assert self.FP in cache.injected_corruptions
        corpses = list(tmp_path.glob("*/*.json.corrupt"))
        assert len(corpses) == 1

    def test_entry_rots_at_most_once(self, tmp_path):
        cache = ChaosResultCache(tmp_path, self.PLAN)
        cache.put(self.FP, np.array([1.0, 2.0]))
        assert cache.get(self.FP) is None
        cache.put(self.FP, np.array([1.0, 2.0]))  # re-measured and stored
        values, _ = cache.get(self.FP)
        assert values.tolist() == [1.0, 2.0]
        assert cache.corrupt_entries == 1

    def test_corruption_counter_reaches_metrics(self, tmp_path):
        registry = MetricsRegistry()
        cache = ChaosResultCache(tmp_path, self.PLAN, metrics=registry)
        cache.put(self.FP, np.array([3.0]))
        cache.get(self.FP)
        assert (
            registry.get("repro_chaos_cache_corruptions_injected_total").value == 1
        )

    def test_inert_plan_leaves_cache_alone(self, tmp_path):
        cache = ChaosResultCache(tmp_path, FaultPlan(get_profile("none")))
        cache.put(self.FP, np.array([4.0]))
        values, _ = cache.get(self.FP)
        assert values.tolist() == [4.0]
        assert cache.corrupt_entries == 0 and not cache.injected_corruptions


class TestEnvironmentPerturbation:
    def test_none_profile_is_identity(self):
        machine = _testbed(2)
        assert perturbed_machine(machine, FaultPlan(get_profile("none"))) is machine

    def test_smoke_profile_storms_and_stragglers(self):
        machine = _testbed(2)
        perturbed = perturbed_machine(machine, FaultPlan(get_profile("smoke")))
        assert perturbed is not machine
        assert perturbed.noisy_rank_factor == pytest.approx(
            machine.noisy_rank_factor * 2.0
        )
        assert perturbed.network_noise is not machine.network_noise

    def test_faulty_clock_installs_profile_steps(self):
        clock = faulty_clock(FaultPlan(get_profile("smoke")))
        assert clock.steps == ((0.5, -2e-3),)

    def test_faulty_clock_merges_and_sorts_base_steps(self):
        base = SimClock(offset=1.0, drift=2e-5, steps=((0.9, 1e-3),))
        clock = faulty_clock(FaultPlan(get_profile("smoke")), base=base)
        assert clock.steps == ((0.5, -2e-3), (0.9, 1e-3))
        assert clock.offset == 1.0 and clock.drift == 2e-5
