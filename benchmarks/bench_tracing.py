"""What tracing costs a campaign: untraced vs memory vs JSONL tracer.

Runs one serial experiment of trivial tasks (each measurement is a few
random draws, so engine and tracing work dominate) three ways:

* ``none`` — no tracer, the path every untraced run takes;
* ``memory`` — a sink-less :class:`~repro.obs.Tracer`, keeping spans in
  ``tracer.finished``;
* ``jsonl`` — a tracer on a :class:`~repro.obs.JsonlSpanSink`, one
  ``O_APPEND`` write per span.

The variants run paired and alternating in one process (one warm-up
round excluded, the order rotated every round) and are timed with
:class:`repro.core.timer.PerfTimer`.  Each variant's campaign wall times
are recorded as :class:`repro.compare.BenchRecord` runs
(``tracing_cost``, ``tracer`` = ``none`` / ``memory`` / ``jsonl``) in
``BENCH_repro.json``, so ``repro compare`` can set two trees' tracing
cost side by side.  This is a record, not a gate: the paper's 5% bar on
instrumentation overhead (Section 4.2.1) is not asserted here.

Run under pytest like the other benches, or directly::

    PYTHONPATH=src python benchmarks/bench_tracing.py --out BENCH.json
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

from _bench_utils import record_bench

from repro.core import Experiment, Factor, FactorialDesign
from repro.core.timer import PerfTimer
from repro.exec import SerialExecutor
from repro.obs import JsonlSpanSink, Tracer, read_trace
from repro.report import render_table

N_POINTS = 32
REPS = 2
RUNS = 2
SAMPLES = 5
VARIANTS = ("none", "memory", "jsonl")


def trivial_measure(point, rep, rng):
    """A nearly free measurement: the run's time is engine and tracing."""
    return rng.normal(loc=float(point["p"]), size=4)


def make_experiment():
    return Experiment(
        name="tracing-cost",
        design=FactorialDesign(
            (Factor("p", tuple(range(N_POINTS))),), replications=REPS
        ),
        measure=trivial_measure,
        unit="us",
        seed=5,
    )


def make_tracer(variant, trace_dir):
    if variant == "none":
        return None
    if variant == "memory":
        return Tracer()
    return Tracer(sink=JsonlSpanSink(Path(trace_dir) / "trace.jsonl"))


def timed_run(variant, trace_dir, timer):
    """One campaign under *variant*; its wall seconds and its tracer."""
    tracer = make_tracer(variant, trace_dir)
    start = timer.now()
    make_experiment().run(executor=SerialExecutor(retries=0), tracer=tracer)
    return timer.now() - start, tracer


def build_tracing(*, runs=RUNS, samples=SAMPLES, out=None):
    """Time the variants paired and alternating; record one run each of
    *samples* samples, *runs* times.  Returns the samples by variant and
    the span counts of the last memory-traced campaign."""
    timer = PerfTimer()
    by_variant = {v: [] for v in VARIANTS}
    spans: Counter = Counter()
    with tempfile.TemporaryDirectory() as trace_dir:
        for variant in VARIANTS:  # warm-up round, not recorded
            timed_run(variant, trace_dir, timer)
        for _ in range(runs):
            run = {v: [] for v in VARIANTS}
            for i in range(samples):
                order = VARIANTS[i % 3:] + VARIANTS[:i % 3]
                for variant in order:
                    wall, tracer = timed_run(variant, trace_dir, timer)
                    run[variant].append(wall)
                    if variant == "memory":
                        spans = Counter(s.name for s in tracer.finished)
            for variant, walls in run.items():
                record_bench(
                    "tracing_cost",
                    {"tracer": variant, "tasks": N_POINTS * REPS},
                    walls,
                    metadata={"executor": "serial", "timer": timer.name},
                    path=out,
                )
                by_variant[variant].extend(walls)
        jsonl_spans = Counter(
            s.name for s in read_trace(Path(trace_dir) / "trace.jsonl")
        )
    return by_variant, spans, jsonl_spans


def render(by_variant) -> str:
    base = statistics.median(by_variant["none"])
    rows = []
    for variant in VARIANTS:
        med = statistics.median(by_variant[variant])
        rows.append([variant, f"{med * 1e3:.2f}", f"{(med / base - 1) * 100:+.1f}%"])
    return render_table(
        ["tracer", "median campaign (ms)", "vs untraced"],
        rows,
        title=(
            f"Tracing cost: serial campaign of {N_POINTS * REPS} trivial tasks, "
            f"{sum(len(w) for w in by_variant.values())} paired samples"
        ),
    )


def test_tracing_cost():
    by_variant, spans, jsonl_spans = build_tracing()
    print("\n" + render(by_variant))
    assert all(len(w) == RUNS * SAMPLES for w in by_variant.values())
    # Every tracer receives the task spans, not only a JSONL one.
    expected = {"experiment": 1, "design-point": N_POINTS,
                "measurement-batch": N_POINTS * REPS}
    assert dict(spans) == expected
    runs_traced = 1 + RUNS * SAMPLES  # the warm-up round appends too
    assert dict(jsonl_spans) == {k: v * runs_traced for k, v in expected.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="suite file (default: BENCH_repro.json)")
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--samples", type=int, default=SAMPLES)
    args = parser.parse_args(argv)
    by_variant, _, _ = build_tracing(runs=args.runs, samples=args.samples,
                                     out=args.out)
    print(render(by_variant))
    return 0


if __name__ == "__main__":
    sys.exit(main())
