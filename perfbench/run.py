"""The repository benchmark: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload collectives|fanout|pipeline \\
        --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]

Launches ``perfbench/rep.py`` -- one repetition per fresh interpreter --
until ``--seconds`` have passed and enough repetitions ran, checks every
output, prints a table, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json:
  means over every cycle of every repetition (see :func:`cycle_mean`),
  except the serve latency percentiles, which pool every warm request of
  the run (at least 1000, so p99 has ten samples beyond it).
* ``--trace 1`` alternates traced and untraced repetitions and reports
  the per-layer metrics (medians over traced repetitions), the tracing
  overhead ``obs.trace_overhead_frac`` and ``failed_frac``.

Every run also writes its raw per-repetition samples as a ``repro.compare``
schema-2 suite, ``DIR/<workload>-seed<N>[-trace].json`` (DIR defaults to
``.perfbench``), so ``repro compare A.json B.json --min-effect F`` can
judge two runs; a traced run writes its spans to ``...-spans.jsonl``.

Exit codes: 0 when every check passed and nothing failed, 1 otherwise,
2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from reference import REFERENCE_NOMINAL_S  # noqa: E402

#: Fewest repetitions a run makes (per kind, in a traced run): setup_s is
#: a median over repetitions, and every repetition sets up afresh.
MIN_REPS = 3
MIN_TRACED_REPS = 2

#: Warm burst requests a run pools before reporting percentiles.
MIN_LATENCY_SAMPLES = 1000

#: A run measures for at most this many seconds, whatever --seconds
#: says, so that it ends well within three minutes.
DEADLINE_S = 120.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("collectives", "fanout", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, one repetition per kind (smoke test)")
    p.add_argument("--out", default=".perfbench",
                   help="directory for the compare suite and spans")
    return p.parse_args(argv)


def run_rep(args, index: int, trace: bool, work_root: Path, until: float | None,
            budget: float) -> dict:
    """Run one repetition in a fresh interpreter and return its figures."""
    work = work_root / f"rep{index}"
    out = work_root / f"rep{index}.json"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    if until is not None:
        cmd += ["--until", repr(until)]
    launch = time.monotonic()
    cmd += ["--launch", repr(launch)]
    # A session of its own, so a timeout can stop the repetition together
    # with its serve process and executor workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"repetition {index} exceeded {budget:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {index} failed:\n{err[-4000:]}")
    return json.loads(out.read_text())


def samples(reps: list[dict], name: str) -> list[float]:
    """Every raw sample of *name* over every cycle of *reps*."""
    return [v for rep in reps for c in rep["cycles"] for v in c[name]]


def scaled(reps: list[dict], name: str, better: str) -> list[float]:
    """Every sample of *name*, scaled to the nominal host speed.

    A time is multiplied, and a rate divided, by ``REFERENCE_NOMINAL_S``
    over the reference time measured around its cycle (see reference.py).
    """
    out = []
    for rep in reps:
        for c in rep["cycles"]:
            k = REFERENCE_NOMINAL_S / c["reference_s"][0]
            out += [v / k if better == "higher" else v * k for v in c[name]]
    return out


def setup_scaled(rep: dict) -> float:
    return rep["setup_s"] * REFERENCE_NOMINAL_S / rep["setup_reference_s"]


def end_to_end(reps: list[dict], better: dict[str, str]) -> dict[str, float]:
    """Medians of the scaled samples; set-up and memory over repetitions."""
    out = {name: statistics.median(scaled(reps, name, better[name]))
           for name in reps[0]["cycles"][0] if name in better}
    out["setup_s"] = statistics.median(setup_scaled(rep) for rep in reps)
    out["peak_rss_mib"] = statistics.median(rep["peak_rss_mib"] for rep in reps)
    return out


def per_layer(traced: list[dict], plain: list[dict], failed_frac: float) -> dict:
    out = {name: statistics.median(rep["layers"][name] for rep in traced)
           for name in traced[0]["layers"]}
    out["obs.trace_overhead_frac"] = (
        statistics.fmean(samples(traced, "total_s"))
        / statistics.fmean(samples(plain, "total_s")) - 1.0)
    out["failed_frac"] = failed_frac
    return out


def write_suite(path: Path, args, units: dict[str, str], better: dict[str, str],
                reps: list[dict], traced: list[dict]) -> None:
    """Per-repetition samples as a repro.compare schema-2 suite.

    Each repetition is a fresh interpreter, so it is one run of every
    record; its samples (one per cycle or warm pass, or for raw serve
    latency one per request) are the iterations.  Set-up, memory and
    per-layer records have one iteration.  End-to-end records hold the
    scaled samples the run reports; ``<name>.raw`` ones the measured times.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.compare import BenchRecord, BenchSuiteResult
    from repro.obs import Provenance

    def record(name: str, runs: list[list[float]], unit: str) -> BenchRecord:
        return BenchRecord(name="perfbench",
                           params={"workload": args.workload, "metric": name},
                           samples=runs, unit=unit)

    records = []
    if reps:
        for name in reps[0]["cycles"][0]:
            if name in better:
                records.append(record(name, [scaled([r], name, better[name])
                                             for r in reps], units[name]))
            records.append(record(f"{name}.raw", [samples([r], name) for r in reps],
                                  units.get(name, "s")))
        records.append(record("setup_s", [[setup_scaled(r)] for r in reps], "s"))
        records.append(record("setup_s.raw", [[r["setup_s"]] for r in reps], "s"))
        records.append(record("peak_rss_mib", [[r["peak_rss_mib"]] for r in reps], "MiB"))
        records.append(record("serve_latency_ms.raw",
                              [r["latencies_ms"] for r in reps], "ms"))
    if traced:
        for name in traced[0]["layers"]:
            records.append(record(name, [[r["layers"][name]] for r in traced],
                                  units[name]))
    provenance = Provenance.capture(methodology={
        "benchmark": "perfbench", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "repetitions": len(reps) + len(traced),
    })
    suite = BenchSuiteResult(records={r.key: r for r in records})
    suite.with_provenance(provenance.to_dict()).write(path)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (HERE / "rep.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]
    out_dir = ROOT / args.out
    work_root = out_dir / f"work-{os.getpid()}"
    work_root.mkdir(parents=True, exist_ok=True)

    plain: list[dict] = []
    traced: list[dict] = []
    # One core for every process of the run: the phases never overlap, and
    # the reference time measured between cycles is then that of the core
    # the phases ran on (the cores of the benchmark hosts change speed
    # independently).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seconds = min(args.seconds, DEADLINE_S)
    start = time.monotonic()
    try:
        for index in range(1000):
            elapsed = time.monotonic() - start
            until = None
            if args.tiny:
                done = len(plain) >= 1 and (not args.trace or len(traced) >= 1)
            elif args.trace:
                done = len(traced) >= MIN_TRACED_REPS and len(plain) >= MIN_TRACED_REPS
                done = done and elapsed >= seconds
            else:
                latencies = sum(len(r["latencies_ms"]) for r in plain)
                done = len(plain) >= MIN_REPS and latencies >= MIN_LATENCY_SAMPLES
                # The first MIN_REPS repetitions share --seconds evenly;
                # any further one runs its two cycles and stops.
                until = start + seconds * min(index + 1, MIN_REPS) / MIN_REPS
            if done:
                break
            trace = bool(args.trace) and index % 2 == 0
            rep = run_rep(args, index, trace, work_root, until,
                          budget=max(30.0, 170.0 - elapsed))
            (traced if trace else plain).append(rep)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    reps = plain + traced
    attempted = sum(r["tasks"] + r["requests"] for r in reps)
    failed = sum(r["failed_tasks"] + len(r["bad_responses"]) for r in reps)
    if args.trace:
        values = per_layer(traced, plain, failed / attempted)
    else:
        values = end_to_end(plain, better)
    checks = {}
    for rep in reps:
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
    missing = [name for name in wanted if name not in values]
    correct = all(checks.values()) and not missing

    suffix = "-trace" if args.trace else ""
    stem = out_dir / f"{args.workload}-seed{args.seed}{suffix}"
    write_suite(stem.with_suffix(".json"), args, units, better, plain, traced)
    if traced:
        with stem.with_name(stem.name + "-spans.jsonl").open("w") as fh:
            for rep in traced:
                for span in rep["spans"]:
                    fh.write(json.dumps(span) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced repetitions")
    for name in wanted:
        if name in values:
            raw = ""
            if not args.trace and name in plain[0]["cycles"][0]:
                raw = f"  (raw median {statistics.median(samples(plain, name)):.6g})"
            elif not args.trace and name == "setup_s":
                raw = f"  (raw median {statistics.median(r['setup_s'] for r in plain):.6g})"
            print(f"  {name:34s} {values[name]:14.6g} {units[name]}{raw}")
    for name, ok in sorted(checks.items()):
        print(f"  check {name:28s} {'ok' if ok else 'FAILED'}")
    for name in missing:
        print(f"  metric {name} missing", file=sys.stderr)
    for rep in reps:
        for bad in rep["bad_responses"]:
            print(f"  bad response: {bad}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted if name in values},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
