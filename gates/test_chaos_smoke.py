"""The CI ``chaos-smoke`` gate: fault injection under the serial loop, the
dist coordinator and socket faults (docs/ROBUSTNESS.md).

``repro chaos`` exits 1 on any unhandled escape or failed resilience
check: lost design points, non-bit-identical recovery, unquarantined
cache corruption, unclamped clock reads.  Each profile runs in well
under a minute.
"""

from __future__ import annotations

import pytest
from conftest import prom, repro


@pytest.mark.parametrize("out,args,counters", [
    ("chaos", ["--profile", "smoke"],
     ["repro_chaos_crashes_injected_total", "repro_cache_corrupt_total"]),
    # The same crash, hang, and cache-corruption mix, retried by the dist
    # coordinator's attempt ledger instead of the serial loop.
    ("chaos-smoke-dist", ["--profile", "smoke", "--workers", "2"],
     ["repro_tasks_retried_total"]),
    # Socket faults planted by ChaosExecutor around a ProcessExecutor:
    # worker kills, partitions, and slow links must all recover to
    # bit-identical values.
    ("chaos-dist", ["--profile", "dist", "--workers", "2"],
     ["repro_chaos_net_kills_injected_total"]),
], ids=["smoke", "smoke-dist-coordinator", "dist"])
def test_chaos_gate(tmp_path_factory, out, args, counters):
    out = tmp_path_factory.mktemp(out, numbered=False)
    repro("chaos", *args, "--dir", out, "--emit-metrics", out / "metrics.prom",
          timeout=60)
    metrics = prom(out / "metrics.prom")
    for name in counters:
        assert metrics[name] >= 1, name
