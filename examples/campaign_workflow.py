"""A measurement campaign across a (simulated) software upgrade.

Section 4.1.2 warns that "regular software upgrades on these systems
likely change performance observations" — the reason a bare machine name
is not an environment description.  This example shows the defensive
workflow:

1. record a latency baseline in a persistent campaign (data + environment);
2. months later, after an "upgrade" (here: a machine model with heavier
   transport noise), re-measure;
3. let the campaign's regression check (``compare_groups``: Kruskal–Wallis
   plus the effect size) decide whether the machine still is the machine
   the baseline described;
4. plan the re-measurement size with power analysis instead of guessing.

Run:  python examples/campaign_workflow.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import Campaign, MeasurementSet, from_machine
from repro.simsys import CompositeNoise, ExponentialSpikes, SimComm, piz_dora
from repro.stats import required_n_for_power, t_test_power


def measure_latency(machine, seed: int, n: int) -> MeasurementSet:
    comm = SimComm(machine, 2, placement="one_per_node", seed=seed)
    return MeasurementSet(
        values=comm.ping_pong(64, n) * 1e6,
        unit="us",
        name="64B ping-pong",
        metadata={"machine": machine.name, "samples": n},
    )


def upgraded(machine):
    """The vendor 'upgrade': same hardware, chattier system software."""
    noisier = CompositeNoise(
        (machine.network_noise, ExponentialSpikes(prob=0.01, mean=1.0e-6))
    )
    return replace(machine, network_noise=noisier)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-campaign-"))
    machine = piz_dora()

    # --- before the upgrade -------------------------------------------
    camp = Campaign.create(
        workdir / "latency-study",
        name="dora latency baseline",
        environment=from_machine(
            machine, input_desc="64 B ping-pong",
            measurement_desc="20k samples, one pair, different nodes",
        ),
    )
    baseline = measure_latency(machine, seed=1, n=20_000)
    camp.record(baseline)
    print(f"campaign stored at {camp.path}")
    print(baseline.describe())
    print()

    # --- plan the re-measurement with power analysis -------------------
    # We want 90% power to detect a 0.1-sigma shift in the mean.
    n_needed = required_n_for_power(0.1, power=0.9)
    print(f"power planning: detecting a 0.1-sigma shift at 90% power needs "
          f"{n_needed} samples per side "
          f"(with only 500, power would be {t_test_power(500, 0.1):.2f})")
    print()

    # --- after the upgrade ---------------------------------------------
    camp2 = Campaign.open(workdir / "latency-study")
    after = measure_latency(upgraded(machine), seed=2, n=max(n_needed, 20_000))
    result = camp2.compare("64B ping-pong", after)
    d = result.effect_sizes[(0, 1)]  # baseline minus new: negative = slower
    print("post-upgrade check:")
    print(f"  Kruskal-Wallis p-value: {result.kruskal.p_value:.3g}")
    print(f"  effect size (baseline - new): {d:+.3f} pooled standard deviations")
    if result.kruskal.significant(0.01):
        direction = "slower" if d < 0 else "faster"
        print(f"  -> the machine is measurably {direction} than the recorded "
              f"baseline; the old environment description no longer holds "
              f"(re-document before citing old numbers, per Section 4.1.2).")
    else:
        print("  -> no measurable change; the baseline remains valid.")
    print()
    print(f"mean latency: {np.mean(camp2.load('64B ping-pong').values):.3f} -> "
          f"{np.mean(after.values):.3f} us")


if __name__ == "__main__":
    main()
