"""Seeded fault plans: *which* faults hit *where*, reproducibly.

The paper's Rules 1–2 demand the measurement environment — noise,
interference, failures — be controlled and reported; Hunold &
Carpen-Amarie show uncontrolled perturbations silently corrupt benchmark
conclusions.  A :class:`FaultPlan` makes perturbation a *controlled
factor*: every fault decision (does this task crash? is this cache entry
corrupted? where does the clock jump?) is a pure function of the plan's
seed and the decision's stable identity, so a perturbed campaign is as
reproducible as a clean one.

Decisions hash with BLAKE2 rather than drawing from a ``numpy``
generator on purpose: they are order-independent (task 7's fate does not
depend on whether task 6 was consulted first), identical across worker
processes, and stable across numpy versions — the same properties the
result-cache fingerprints rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import ValidationError

__all__ = ["FaultProfile", "FaultPlan", "PROFILES", "get_profile"]


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class FaultProfile:
    """The fault mix of one chaos run (the *what* and *how hard*).

    Attributes
    ----------
    crash_p, hang_p:
        Per-task probabilities of an injected worker crash / hang.  A task
        is doomed at most once (first encounter); the retry runs clean, so
        a single retry budget always recovers a planned fault.
    cache_corrupt_p:
        Per-entry probability that a :class:`~repro.chaos.ChaosResultCache`
        mangles the entry file just before it is read.
    clock_steps:
        Discontinuities ``(at_true_time, offset_jump)`` for simulated
        clocks (negative jumps exercise the monotone-read clamp).
    storm_factor / storm_weight:
        Noise storms: with weight *w* a network-noise sample is drawn from
        the base model scaled by *factor* (OS/daemon interference bursts).
    straggler_factor:
        Multiplies the machine's ``noisy_rank_factor`` — the designated
        noisy ranks become outright stragglers.
    hang_s:
        How long an injected hang sleeps; pair with an executor timeout
        below this to exercise the sever/requeue path.
    crash_mode:
        ``"raise"`` (an exception crosses back as the task's error) or
        ``"exit"`` (the worker process dies hard and is replaced).
        ``"exit"`` needs a :class:`~repro.exec.ProcessExecutor` or
        :class:`~repro.exec.DistExecutor`.
    net_kill_p, net_partition_p, net_slow_p:
        Socket-level faults for the distributed backend
        (:class:`~repro.exec.DistExecutor`): per-task probabilities that,
        *after* the measurement but before its result is sent, the worker
        process is killed hard, its connection is severed, or the send is
        delayed by ``net_slow_s`` seconds.  Like task faults, each fires
        at most once per task label, so one retry on another worker
        always recovers — and because the retry re-derives the task's
        generator from its own SeedSequence, the recovered bytes are
        identical.
    """

    name: str
    crash_p: float = 0.0
    hang_p: float = 0.0
    cache_corrupt_p: float = 0.0
    clock_steps: tuple[tuple[float, float], ...] = ()
    storm_factor: float = 0.0
    storm_weight: float = 0.05
    straggler_factor: float = 0.0
    hang_s: float = 0.4
    crash_mode: str = "raise"
    net_kill_p: float = 0.0
    net_partition_p: float = 0.0
    net_slow_p: float = 0.0
    net_slow_s: float = 0.05
    description: str = ""

    def __post_init__(self) -> None:
        _check_prob(self.crash_p, "crash_p")
        _check_prob(self.hang_p, "hang_p")
        if self.crash_p + self.hang_p > 1.0:
            raise ValidationError("crash_p + hang_p must not exceed 1")
        _check_prob(self.net_kill_p, "net_kill_p")
        _check_prob(self.net_partition_p, "net_partition_p")
        _check_prob(self.net_slow_p, "net_slow_p")
        if self.net_kill_p + self.net_partition_p + self.net_slow_p > 1.0:
            raise ValidationError(
                "net_kill_p + net_partition_p + net_slow_p must not exceed 1"
            )
        if self.net_slow_s <= 0.0:
            raise ValidationError(
                f"net_slow_s must be positive, got {self.net_slow_s}"
            )
        _check_prob(self.cache_corrupt_p, "cache_corrupt_p")
        _check_prob(self.storm_weight, "storm_weight")
        if self.storm_factor < 0.0:
            raise ValidationError(f"storm_factor must be >= 0, got {self.storm_factor}")
        if self.straggler_factor < 0.0:
            raise ValidationError(
                f"straggler_factor must be >= 0, got {self.straggler_factor}"
            )
        if self.hang_s <= 0.0:
            raise ValidationError(f"hang_s must be positive, got {self.hang_s}")
        if self.crash_mode not in ("raise", "exit"):
            raise ValidationError(
                f"crash_mode must be 'raise' or 'exit', got {self.crash_mode!r}"
            )
        object.__setattr__(
            self,
            "clock_steps",
            tuple((float(at), float(jump)) for at, jump in self.clock_steps),
        )

    def describe(self) -> str:
        """One-line disclosure for reports (Rule 9: report the environment)."""
        text = (
            f"profile {self.name!r}: crash p={self.crash_p:g}, "
            f"hang p={self.hang_p:g} ({self.hang_s:g} s), "
            f"cache corruption p={self.cache_corrupt_p:g}, "
            f"{len(self.clock_steps)} clock step(s), "
            f"noise storm x{self.storm_factor:g}@{self.storm_weight:g}, "
            f"stragglers x{self.straggler_factor:g}"
        )
        if self.net_kill_p + self.net_partition_p + self.net_slow_p > 0.0:
            text += (
                f", net kill p={self.net_kill_p:g} / "
                f"partition p={self.net_partition_p:g} / "
                f"slow p={self.net_slow_p:g} ({self.net_slow_s:g} s)"
            )
        return text


#: The standard profiles.  ``smoke`` is the CI gate's contract: worker
#: crash p=0.05, hang p=0.02, cache corruption p=0.02, one clock
#: discontinuity — change these numbers only together with the
#: acceptance criteria in docs/ROBUSTNESS.md.
PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(
        name="none",
        description="no faults; the control arm of any chaos comparison",
    ),
    "smoke": FaultProfile(
        name="smoke",
        crash_p=0.05,
        hang_p=0.02,
        cache_corrupt_p=0.02,
        clock_steps=((0.5, -2e-3),),
        storm_factor=3.0,
        storm_weight=0.05,
        straggler_factor=2.0,
        hang_s=0.4,
        description="the CI gate: light faults, everything recoverable",
    ),
    "heavy": FaultProfile(
        name="heavy",
        crash_p=0.2,
        hang_p=0.05,
        cache_corrupt_p=0.1,
        clock_steps=((0.25, -5e-3), (0.75, 3e-3)),
        storm_factor=10.0,
        storm_weight=0.1,
        straggler_factor=4.0,
        hang_s=0.4,
        description="stress mix for manual soak runs",
    ),
    "dist": FaultProfile(
        name="dist",
        crash_p=0.05,
        net_kill_p=0.1,
        net_partition_p=0.1,
        net_slow_p=0.1,
        net_slow_s=0.05,
        hang_s=0.1,
        description="socket faults for the distributed backend: worker "
        "kills, partitions, slow links, plus light task crashes",
    ),
}


def get_profile(name: str) -> FaultProfile:
    """A registered :class:`FaultProfile` by name."""
    if name not in PROFILES:
        raise ValidationError(f"unknown fault profile {name!r}; have {sorted(PROFILES)}")
    return PROFILES[name]


@dataclass(frozen=True)
class FaultPlan:
    """A profile bound to a seed: the deterministic oracle of one chaos run.

    Every query is a pure function of ``(seed, domain, key)``, so the
    same plan gives the same answers in any process, any order, any
    executor — perturbed runs stay reproducible (the tentpole contract:
    the recovered subset is bit-identical to the fault-free run).
    """

    profile: FaultProfile
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))

    def _unit(self, domain: str, key: str) -> float:
        """A uniform [0, 1) draw addressed by ``(seed, domain, key)``."""
        blob = f"{self.seed}|{domain}|{key}".encode()
        digest = hashlib.blake2b(blob, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def task_fault(self, label: str) -> str | None:
        """``"crash"``, ``"hang"``, or None for the task named *label*.

        Labels are the engine's task labels (workload @ point rep=k), so
        the same task draws the same fate under any executor.
        """
        u = self._unit("task", label)
        if u < self.profile.crash_p:
            return "crash"
        if u < self.profile.crash_p + self.profile.hang_p:
            return "hang"
        return None

    def net_fault(self, label: str) -> str | None:
        """``"kill"``, ``"partition"``, ``"slow"``, or None for *label*.

        Socket-level fates for the distributed backend, drawn from an
        independent hash domain so a task can meet both a task fault and
        a network fault (on different attempts).  The dist worker fires
        the fault *after* measuring, just before the result frame goes
        out — the most adversarial moment, because the work is lost.
        """
        p = self.profile
        total = p.net_kill_p + p.net_partition_p + p.net_slow_p
        if total <= 0.0:
            return None
        u = self._unit("net", label)
        if u < p.net_kill_p:
            return "kill"
        if u < p.net_kill_p + p.net_partition_p:
            return "partition"
        if u < total:
            return "slow"
        return None

    def corrupts_entry(self, fingerprint: str) -> bool:
        """Is the cache entry for *fingerprint* mangled before reading?"""
        return (
            self.profile.cache_corrupt_p > 0.0
            and self._unit("cache", fingerprint) < self.profile.cache_corrupt_p
        )

    def corruption_mode(self, fingerprint: str) -> str:
        """How the entry is mangled: truncation, type confusion, or bad shape."""
        modes = ("truncate", "null", "shape")
        return modes[int(self._unit("cache-mode", fingerprint) * len(modes)) % len(modes)]

    def describe(self) -> str:
        """The profile disclosure plus the seed."""
        return f"{self.profile.describe()}; plan seed {self.seed}"
