"""Per-append cost of ``ShardStore.append`` as the store grows.

An append should cost the same however many entries the store already
lists (docs/STORE.md, "The manifest journal").  For each store size N
this fills a fresh store with N entries of 8 float64 values, timing every
append; one sample is the median of the last 100 appends, so it prices
an append into a store that holds about N entries.  Each size is sampled
three times and recorded as one run of
``store_append[entries=N]`` (unit: seconds per append) in a
:class:`repro.compare.BenchRecord` suite; every invocation is one run, so
record two or more from separate processes::

    PYTHONPATH=src python benchmarks/bench_store_append.py --out BENCH_repro.json

The bench uses public API only, so a copy of this file can time another
source tree, e.g. at the sizes a per-append manifest rewrite can still
reach in seconds::

    PYTHONPATH=<tree>/src python benchmarks/bench_store_append.py \\
        --entries 100 1000 --out other.json
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time

import numpy as np
from _bench_utils import record_bench

from repro.store import ShardStore

#: Store sizes, in entries.
ENTRIES = (100, 1000, 10_000)

#: Samples per size in one run.
SAMPLES = 3

#: Appends at the end of each fill whose median is one sample.
TAIL = 100

#: Values per entry.
VALUES = 8


def sample(entries: int, seed: int) -> float:
    """Median seconds per append over the last :data:`TAIL` appends of
    filling a fresh store with *entries* entries."""
    rng = np.random.default_rng(seed)
    times = []
    with tempfile.TemporaryDirectory() as path:
        store = ShardStore(path)
        for i in range(entries):
            values = rng.random(VALUES)
            start = time.perf_counter()
            store.append(f"{i:032x}", values)
            times.append(time.perf_counter() - start)
        store.close()
    return statistics.median(times[-TAIL:])


def run(entries=ENTRIES, *, out) -> dict[int, list[float]]:
    """Record one run of :data:`SAMPLES` samples per size into *out*.

    The sizes take turns, so a host whose speed drifts during the run
    slows every size alike.
    """
    samples: dict[int, list[float]] = {n: [] for n in entries}
    for seed in range(SAMPLES):
        for n in entries:
            samples[n].append(sample(n, seed))
    for n, values in samples.items():
        record_bench("store_append", {"entries": n}, values, unit="s", path=out,
                     metadata={"values_per_entry": VALUES, "tail": TAIL})
    return samples


def test_store_append_cost_is_flat(tmp_path):
    samples = run(out=tmp_path / "store_append.json")
    small, large = (statistics.median(samples[n]) for n in (ENTRIES[0], ENTRIES[-1]))
    assert large <= 1.5 * small, (small, large)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entries", type=int, nargs="+", default=list(ENTRIES),
                        help=f"store sizes to time (default {list(ENTRIES)})")
    parser.add_argument("--out", required=True, metavar="PATH",
                        help="the BenchRecord suite to merge this run into")
    args = parser.parse_args(argv)
    for n, values in run(args.entries, out=args.out).items():
        print(f"store_append[entries={n}]: "
              + ", ".join(f"{v * 1e6:.1f}" for v in values) + " us per append")
    print(f"results merged into {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
