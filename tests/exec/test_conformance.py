"""Every executor against the one conformance contract.

The contract lives in :mod:`tests.exec.conformance`; this module only
binds it to concrete executors.  A new executor earns its place behind
the ``executor=`` seam by adding a subclass here and passing unchanged.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosExecutor, FaultPlan, FaultProfile
from repro.exec import DistExecutor, ProcessExecutor, SerialExecutor

from .conformance import ExecutorConformance, make_exp


class TestSerialConformance(ExecutorConformance):
    def make_executor(self, tmp_path, *, retries=2, backoff=0.0):
        return SerialExecutor(retries=retries, backoff=backoff)


class TestProcessConformance(ExecutorConformance):
    def make_executor(self, tmp_path, *, retries=2, backoff=0.0):
        return ProcessExecutor(max_workers=2, retries=retries, backoff=backoff)


class TestChaosWrappedConformance(ExecutorConformance):
    """A chaos-wrapped serial executor still honours the whole contract.

    Roughly a third of tasks meet a planted crash on first encounter, so
    attempt counts exceed the workload's own failures — the recovered
    values must not.
    """

    exact_attempts = False

    def make_executor(self, tmp_path, *, retries=2, backoff=0.0):
        plan = FaultPlan(FaultProfile(name="conformance", crash_p=0.3), seed=7)
        return ChaosExecutor(
            SerialExecutor(retries=retries, backoff=backoff),
            plan,
            tmp_path / "chaos-state",
        )


class TestDistConformance(ExecutorConformance):
    """The distributed socket backend, coordinator plus 2 forked workers."""

    def make_executor(self, tmp_path, *, retries=2, backoff=0.0):
        return DistExecutor(
            workers=2,
            spawn="fork",
            retries=retries,
            backoff=backoff,
            connect_timeout=30.0,
        )


class TestChaosDistConformance(ExecutorConformance):
    """The dist backend under planted socket faults still honours the
    whole contract.

    Each task may lose one attempt to a killed or partitioned worker, or
    be late on a slow link; the lost work is measured again, to the same
    bytes.
    """

    exact_attempts = False

    def make_executor(self, tmp_path, *, retries=2, backoff=0.0):
        # Seed 4 plants two kills, two partitions, and a slow link among
        # the eight tasks of the shared campaign, and none on the task
        # the annotate test expects to pass first try.
        plan = FaultPlan(
            FaultProfile(name="conformance-net", net_kill_p=0.15,
                         net_partition_p=0.15, net_slow_p=0.15, net_slow_s=0.01),
            seed=4,
        )
        inner = DistExecutor(workers=2, spawn="fork", retries=retries,
                             backoff=backoff, connect_timeout=30.0)
        return ChaosExecutor(inner, plan, tmp_path / "chaos-state")

    @pytest.fixture()
    def executor(self, tmp_path):
        ex = self.make_executor(tmp_path, retries=2, backoff=0.0)
        with ex.inner:
            yield ex

    def test_socket_faults_fired(self, executor):
        make_exp().run(executor=executor)
        assert executor.injected["kill"] == 2
        assert executor.injected["partition"] == 2
        assert executor.injected["slow"] == 1
