"""Fault injectors: chaos-wrapped executors, caches, machines, clocks.

Each injector composes with the real component rather than replacing it:
:class:`ChaosExecutor` wraps any :class:`~repro.exec.Executor`,
:class:`ChaosResultCache` *is* a :class:`~repro.exec.ResultCache`, and
:func:`perturbed_machine` / :func:`faulty_clock` return ordinary simsys
objects.  The campaign under test runs the production code paths — the
injectors only decide, via the :class:`~repro.chaos.FaultPlan`, when
those paths get hit with a planted fault.

Two invariants make injected faults recoverable *and* keep recovered
results bit-identical to a fault-free run:

* a task or socket fault fires on the task's **first** encounter only
  (claimed via an ``O_CREAT | O_EXCL`` marker file in a per-run state
  directory, which works across worker processes), so the executor's
  normal retry budget always suffices;
* injection never touches the task's RNG — crashes raise before the
  measurement starts, hangs and slow links sleep in *wall* time, kills
  and partitions throw the measured value away, and cache corruption
  destroys bytes on disk — so the retried (or re-measured) value is the
  value the clean run produces.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from ..errors import FaultInjected, ValidationError
from ..exec.cache import ResultCache
from ..exec.dist import DistExecutor
from ..exec.engine import Executor, Outcome
from ..exec.hooks import ExecHooks
from ..simsys.clock import SimClock
from ..simsys.machine import MachineSpec
from ..simsys.noise import MixtureNoise, scaled
from .plan import FaultPlan

__all__ = [
    "ChaosExecutor",
    "ChaosResultCache",
    "perturbed_machine",
    "faulty_clock",
]


#: The injection counter of each planted fault kind.
_COUNTERS = {
    "crash": "repro_chaos_crashes_injected_total",
    "hang": "repro_chaos_hangs_injected_total",
    "kill": "repro_chaos_net_kills_injected_total",
    "partition": "repro_chaos_net_partitions_injected_total",
    "slow": "repro_chaos_net_slow_links_injected_total",
}


def _marker(state_dir: str, domain: str, label: str) -> str:
    digest = hashlib.blake2b(f"{domain}|{label}".encode(), digest_size=12).hexdigest()
    return os.path.join(state_dir, f"fault-{digest}")


def _claim(state_dir: str, domain: str, label: str) -> bool:
    """Atomically claim the one allowed firing of *label*'s *domain* fault."""
    try:
        path = _marker(state_dir, domain, label)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class _ChaosWorker:
    """Picklable worker wrapper that detonates planned faults.

    Items arrive as ``(label, item)`` pairs (wrapped by
    :class:`ChaosExecutor`); the fault decision keys on the label, so the
    same task meets the same fate under any executor or worker count.
    Task faults fire before the measurement, socket faults after it.
    """

    def __init__(self, inner: Callable[[Any], Any], plan: FaultPlan, state_dir: str):
        self.inner = inner
        self.plan = plan
        self.state_dir = state_dir

    def __call__(self, wrapped: tuple[str, Any]) -> Any:
        label, item = wrapped
        fault = self.plan.task_fault(label)
        if fault is not None and _claim(self.state_dir, "task", label):
            if fault == "crash":
                if self.plan.profile.crash_mode == "exit":
                    # Die the way a segfaulting worker dies: no result
                    # frame, just a dropped connection and an exit code.
                    os._exit(13)
                raise FaultInjected(f"planted worker crash for {label!r}")
            # Hang: burn wall time, then measure normally.  Under an
            # executor timeout the attempt is killed and retried (the
            # marker is claimed, so the retry runs clean); without a
            # timeout the task is merely late — values are unaffected
            # either way because no task RNG is consumed.
            time.sleep(self.plan.profile.hang_s)
        try:
            return self.inner(item)
        finally:
            self._net_fault(label)

    def _net_fault(self, label: str) -> None:
        """Fire *label*'s socket fault: the work is done, its reply not sent."""
        fault = self.plan.net_fault(label)
        if fault is None or not _claim(self.state_dir, "net", label):
            return
        if fault == "kill":
            os._exit(17)
        if fault == "partition":
            # A clean exit: the kernel closes the socket with the result
            # unsent, so the coordinator sees a dropped connection.
            os._exit(0)
        time.sleep(self.plan.profile.net_slow_s)  # slow link


class ChaosExecutor(Executor):
    """An :class:`~repro.exec.Executor` that injects planned faults.

    Wraps *inner* (serial, process, or dist): every ``run()`` routes the
    worker through a :class:`_ChaosWorker`, which consults the plan per
    task label and detonates each planned task fault (crash, hang) and
    socket fault (kill, partition, slow link) exactly once.  A plan that
    kills workers (:attr:`FaultProfile.kills_workers`) needs an *inner*
    with worker processes.  Injection counts land in :attr:`injected`
    and — when the hooks carry a :class:`~repro.obs.MetricsRegistry` —
    in the ``repro_chaos_*_injected_total`` counters.

    ``state_dir`` scopes the once-only markers to one logical run; give
    each campaign its own fresh directory.
    """

    def __init__(self, inner: Executor, plan: FaultPlan, state_dir: str | Path):
        super().__init__(
            retries=inner.retries,
            backoff=inner.backoff,
            max_backoff=inner.max_backoff,
        )
        if plan.profile.kills_workers and not isinstance(inner, DistExecutor):
            raise ValidationError(
                f"profile {plan.profile.name!r} kills worker processes "
                "(crash_mode='exit', net kills or partitions); it needs a "
                "ProcessExecutor or DistExecutor (a SerialExecutor would "
                "take the campaign down with it)"
            )
        self.inner = inner
        self.plan = plan
        self.state_dir = str(state_dir)
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        #: Faults planted by this executor so far, by kind.
        self.injected: dict[str, int] = dict.fromkeys(_COUNTERS, 0)

    def run(
        self,
        worker: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        labels: Sequence[str] | None = None,
        hooks: ExecHooks | None = None,
    ) -> list[Outcome]:
        hooks = hooks or ExecHooks()
        names = self._labels(items, labels)
        # Count the faults that will actually fire in this batch (planned
        # and not yet claimed) before handing off — the worker side may be
        # in another process.
        for name in names:
            for domain, fault in (("task", self.plan.task_fault(name)),
                                  ("net", self.plan.net_fault(name))):
                marker = _marker(self.state_dir, domain, name)
                if fault is not None and not os.path.exists(marker):
                    self.injected[fault] += 1
                    if hooks.metrics is not None:
                        hooks.metrics.counter(_COUNTERS[fault]).inc()
        chaos_worker = _ChaosWorker(worker, self.plan, self.state_dir)
        wrapped = [(name, item) for name, item in zip(names, items)]
        return self.inner.run(chaos_worker, wrapped, labels=names, hooks=hooks)


class ChaosResultCache(ResultCache):
    """A :class:`~repro.exec.ResultCache` whose entries rot on schedule.

    Just before a read, an existing entry selected by the plan is mangled
    on disk (truncated, type-confused, or reshaped), at most once per
    fingerprint per instance.  The base class's integrity verification
    then has to detect it, quarantine the file, and report a miss — which
    is exactly the recovery path a torn write from a killed worker takes
    in production.
    """

    def __init__(self, path: str | Path, plan: FaultPlan, metrics: Any | None = None):
        super().__init__(path)
        self.plan = plan
        self.metrics = metrics
        #: Entries corrupted by this instance (by fingerprint).
        self.injected_corruptions: set[str] = set()

    def _mangle(self, entry: Path, fingerprint: str) -> None:
        mode = self.plan.corruption_mode(fingerprint)
        if mode == "truncate":
            blob = entry.read_bytes()
            entry.write_bytes(blob[: max(len(blob) // 2, 1)])
        elif mode == "null":
            entry.write_text("null")
        else:  # valid JSON, wrong shape
            entry.write_text('{"fingerprint": "%s", "values": []}' % fingerprint)

    def get(self, fingerprint: str):
        entry = self._entry(fingerprint)
        if (
            entry.exists()
            and fingerprint not in self.injected_corruptions
            and self.plan.corrupts_entry(fingerprint)
        ):
            self.injected_corruptions.add(fingerprint)
            self._mangle(entry, fingerprint)
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_chaos_cache_corruptions_injected_total"
                ).inc()
        return super().get(fingerprint)


def perturbed_machine(machine: MachineSpec, plan: FaultPlan) -> MachineSpec:
    """*machine* under the plan's environmental degradation.

    Noise storms replace the network-noise model with a mixture that,
    with the profile's ``storm_weight``, draws from the base model scaled
    by ``storm_factor`` (interference bursts); ``straggler_factor``
    multiplies the machine's ``noisy_rank_factor`` so the designated
    noisy ranks become stragglers.  With both knobs at zero the machine
    is returned unchanged (so the "none" profile is a true no-op).
    """
    import dataclasses

    changes: dict[str, Any] = {}
    profile = plan.profile
    if profile.storm_factor > 0.0 and profile.storm_weight > 0.0:
        base = machine.network_noise
        changes["network_noise"] = MixtureNoise(
            (
                (1.0 - profile.storm_weight, base),
                (profile.storm_weight, scaled(profile.storm_factor, base)),
            )
        )
    if profile.straggler_factor > 0.0:
        changes["noisy_rank_factor"] = machine.noisy_rank_factor * profile.straggler_factor
    if not changes:
        return machine
    return dataclasses.replace(machine, **changes)


def faulty_clock(plan: FaultPlan, base: SimClock | None = None) -> SimClock:
    """A :class:`~repro.simsys.SimClock` carrying the plan's discontinuities.

    Copies *base*'s parameters (a perfect clock when omitted) and installs
    the profile's ``clock_steps``.  Negative jumps exercise the clock's
    monotone-read clamp and the ``clock_backwards_clamped`` measurement
    flag.
    """
    base = base or SimClock()
    steps = tuple(sorted(list(base.steps) + list(plan.profile.clock_steps)))
    return SimClock(
        offset=base.offset,
        drift=base.drift,
        granularity=base.granularity,
        read_overhead=base.read_overhead,
        jitter=base.jitter,
        rng=base.rng,
        steps=steps,
    )
