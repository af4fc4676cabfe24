"""One repetition of one workload, in a fresh interpreter.

``run.py`` launches this once per repetition::

    python3 perfbench/rep.py --workload W --seed N --launch T --work DIR \
        --out FILE [--until T] [--trace] [--tiny]

``--launch`` is run.py's ``time.monotonic()`` just before the launch,
so ``setup_s`` covers interpreter start, imports, input generation, the
executor and a ``repro serve`` process that is ready to accept requests.
The timed phases follow, repeated in cycles, each on a fresh campaign
and figure cache: cold campaign, reruns, analyze, the cold figure renders
that open the serve burst, and the warm closed-loop burst from one client
connection.  With ``--until`` (a ``time.monotonic()`` value) cycles repeat
while the next one would end by then, at least twice; without it the
workload's fixed number of cycles runs.  Outputs are checked every cycle, and the
figures, samples and check results go to FILE as JSON.  With ``--trace``
the layer probes are installed and their counters (summed over the
cycles) and spans are added.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

STALE_ETAG = '"' + "0" * 32 + '"'


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--until", type=float, default=None,
                   help="time.monotonic() by which the last cycle should end "
                        "(default: the workload's fixed number of cycles)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# The serve process and its clients
# ---------------------------------------------------------------------------


class ServeProcess:
    """A ``repro serve --campaign`` child on an ephemeral port."""

    def __init__(self, work: Path, campaign_dir: Path, seed: int, trace: bool) -> None:
        self.log = work / "serve.log"
        self.probe_out = work / "serve-probes.json" if trace else None
        cmd = [sys.executable, str(HERE / "serve_child.py")]
        if self.probe_out is not None:
            cmd += ["--probe-out", str(self.probe_out)]
        cmd += ["--", "--port", "0", "--quick", "--seed", str(seed),
                "--cache-dir", str(work / "figures"),
                "--campaign", str(campaign_dir)]
        with self.log.open("w") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                         stderr=log, cwd=ROOT)
        self.port = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> int:
        # The CLI prints "serving N figure(s) on http://HOST:PORT" to stderr
        # once the socket listens.
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(r"on http://[\d.]+:(\d+)", self.log.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not start: {self.log.read_text()}")

    def stop(self) -> dict | None:
        """Stop the server (SIGINT, as a user would) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self.probe_out is not None and self.probe_out.exists():
            return json.loads(self.probe_out.read_text())
        return None


def fetch(port: int, path: str, etag: str | None = None) -> dict:
    """One GET on a fresh connection (the server closes after each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"If-None-Match": etag} if etag else {}
    t0 = time.perf_counter()
    try:
        conn.request("GET", path, headers=headers)
        resp = conn.getresponse()
        body = resp.read()
        status, got = resp.status, resp.getheader("ETag")
    finally:
        conn.close()
    return {"path": path, "sent": etag, "status": status, "etag": got,
            "bytes": len(body), "ms": (time.perf_counter() - t0) * 1e3}


def figure_of(path: str) -> str | None:
    """``/figures/NAME.FMT`` -> NAME (None for the catalog)."""
    if not path.startswith("/figures/"):
        return None
    return path[len("/figures/"):].split(".", 1)[0]


def cold_renders(port: int, figures: tuple[str, ...]) -> list[dict]:
    """One client requests every unbuilt figure, one at a time.

    One at a time: two concurrent builds of one figure in one server
    process race on the renderer's temporary file and one of them fails
    with a 500.
    """
    return [fetch(port, f"/figures/{fig}.vl.json") for fig in figures]


def warm_burst(port: int, requests, etags: dict[str, str]) -> list[dict]:
    """Closed loop: one client sends the requests one at a time."""
    got = []
    for cls, path, stale in requests:
        etag = None
        if cls == "revalidate":
            etag = STALE_ETAG if stale else etags.get(figure_of(path))
        got.append(fetch(port, path, etag))
    return got


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def datasets_digest(result) -> str:
    """Digest of every dataset's name and value bytes."""
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    for ms in sorted(result.datasets.values(), key=lambda m: m.name):
        h.update(ms.name.encode())
        h.update(np.ascontiguousarray(ms.values, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_responses(responses: list[dict], keys: dict[str, str]) -> dict[str, bool]:
    """ETags equal the service's content keys; 304 only on a matching tag."""
    etag_ok = revalidate_ok = True
    for r in responses:
        fig = figure_of(r["path"])
        if fig is None or r["status"] not in (200, 304):
            continue
        expected = f'"{keys[fig]}"'
        etag_ok &= r["etag"] == expected
        revalidate_ok &= (r["status"] == 304) == (r["sent"] == expected)
    return {"etag_is_content_key": etag_ok, "not_modified_only_on_match": revalidate_ok}


def check_sketch_median(store, summary) -> bool:
    """The streaming median lies within the KLL rank bound of the exact one."""
    import numpy as np
    from repro.stats import SKETCH_RANK_ERROR_C
    from repro.stats.sketch import DEFAULT_SKETCH_K

    exact = np.sort(np.concatenate([store.get(fp)[0] for fp in store.fingerprints()]))
    eps = SKETCH_RANK_ERROR_C / DEFAULT_SKETCH_K
    lo = np.searchsorted(exact, summary.median, side="left") / exact.size
    hi = np.searchsorted(exact, summary.median, side="right") / exact.size
    return bool(lo <= 0.5 + eps and hi >= 0.5 - eps)


# ---------------------------------------------------------------------------
# Per-layer figures of a traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(spec, bench: dict, serve: dict, simsys: dict, hooks) -> dict:
    """Assemble the per-layer metrics from probe counters and spans."""
    from probes import self_times

    st = dict(serve["stats"])
    for key, value in bench["stats"].items():
        st[key] = st.get(key, 0.0) + value

    def g(key: str) -> float:
        return float(st.get(key, 0.0))

    spans = bench["spans"] + serve["spans"]
    selfs = self_times(spans)
    busy = simsys["measure_s"]
    submitted = max(hooks.submitted, 1)
    samples = serve["samples"]
    m = {
        "simsys.calls": simsys["calls"],
        "simsys.busy_s": simsys["busy_s"],
        "simsys.values": simsys["values"],
        "exec.submitted": hooks.submitted,
        "exec.completed": hooks.completed,
        "exec.retried": hooks.retried,
        "exec.failed": hooks.failed,
        "exec.run_s": g("exec.run.s"),
        "exec.overhead_ms_per_task":
            (g("exec.run.s") * spec.workers - busy) / submitted * 1e3,
        "exec.wait_s": sum(hooks.task_seconds.values()) - busy,
        "protocol.frames": g("protocol.encode.calls") + g("protocol.decode.calls"),
        "protocol.bytes": g("protocol.bytes"),
        "protocol.encode_s": g("protocol.encode.s"),
        "protocol.decode_s": g("protocol.decode.s"),
        "cache.get_calls": g("cache.get.calls"),
        "cache.get_s": g("cache.get.s"),
        "cache.hits": g("cache.hits"),
        "cache.hit_ratio": g("cache.hits") / max(g("cache.get.calls"), 1.0),
        "cache.put_calls": g("cache.put.calls"),
        "cache.put_s": g("cache.put.s"),
        "cache.bytes_written": g("cache.bytes_written"),
        "cache.corrupt": sum(v for k, v in st.items() if k.startswith("cache.corrupt.")),
        "cache.fingerprint_s": g("cache.fingerprint.s"),
        "store.append_calls": g("store.append.calls"),
        "store.append_s": g("store.append.s"),
        "store.bytes_appended": g("store.bytes_appended"),
        "store.get_calls": g("store.get.calls"),
        "store.get_s": g("store.get.s"),
        "store.bytes_read": g("store.bytes_read"),
        "store.digest_calls": g("store.digest.calls"),
        "store.digest_s": g("store.digest.s"),
        "store.digest_bytes": g("store.digest_bytes"),
        "experiment.run_s": sum(s["wall_s"] for s in spans if s["name"] == "experiment"),
        "experiment.self_s": selfs.get("experiment", 0.0),
        "campaign.record_calls": g("campaign.record.calls"),
        "campaign.record_s": g("campaign.record.s"),
        "campaign.record_self_s": selfs.get("campaign.record", 0.0),
        "campaign.index_bytes": g("campaign.index_bytes"),
        "campaign.load_calls": g("campaign.load.calls"),
        "campaign.load_s": g("campaign.load.s"),
        "export.to_json_s": g("export.to_json.s"),
        "export.from_json_s": g("export.from_json.s"),
        "stats.summary_calls": g("stats.summary.calls"),
        "stats.summary_s": g("stats.summary.s"),
        "stats.values_summarized": g("stats.values"),
        "stats.summarize_store_s": g("stats.summarize_store.s"),
        "registry.render_calls": g("registry.render.calls"),
        "registry.builds": g("registry.builds"),
        "registry.duplicate_builds": g("registry.duplicate_builds"),
        "registry.build_s": g("registry.build_s"),
        "registry.content_key_calls": g("registry.content_key.calls"),
        "registry.content_key_s": g("registry.content_key.s"),
        "registry.campaign_digest_calls": g("registry.campaign_digest.calls"),
        "registry.campaign_digest_s": g("registry.campaign_digest.s"),
        "serve.requests": g("serve.handle.calls"),
        "serve.errors": g("serve.errors"),
        "serve.handle_s": g("serve.handle.s"),
        "obs.spans": len(spans),
    }
    for cls in ("figure", "revalidate", "campaign", "catalog"):
        values = samples.get(f"serve.handle_ms.{cls}", [])
        m[f"serve.handle_ms.{cls}"] = statistics.median(values) if values else 0.0
    return m


def read_simsys_logs(log_dir: Path) -> dict:
    total = {"calls": 0, "busy_s": 0.0, "values": 0, "measure_s": 0.0}
    for path in log_dir.glob("simsys-*.jsonl"):
        for line in path.read_text().splitlines():
            for key, value in json.loads(line).items():
                total[key] += value
    return total


# ---------------------------------------------------------------------------
# The repetition
# ---------------------------------------------------------------------------


def make_executor(spec):
    from repro.exec import DistExecutor, ProcessExecutor, SerialExecutor

    if spec.executor == "process":
        return ProcessExecutor(max_workers=spec.workers)
    if spec.executor == "dist":
        return DistExecutor(workers=spec.workers, spawn="fork")
    return SerialExecutor()


def run(args: argparse.Namespace) -> dict:
    import repro.stats.streaming as streaming
    from repro.core import Campaign, Experiment, Factor, FactorialDesign
    from repro.exec import ExecHooks
    from repro.obs import Tracer
    from repro.report.registry import FigureService

    # Imported here, not first in each cycle's forked executor workers.
    import repro.simsys.mpi  # noqa: F401
    import workloads
    from probes import Probes, install_campaign_probes
    from reference import reference_s

    spec = workloads.make_workload(args.workload, args.seed, tiny=args.tiny)
    work = Path(args.work)
    camp_dir, fig_dir = work / "campaign", work / "figures"
    work.mkdir(parents=True)
    camp = Campaign.create(camp_dir, name=f"perfbench-{spec.name}")
    experiments = [
        Experiment(
            name=e.name,
            design=FactorialDesign(tuple(Factor(n, lv) for n, lv in e.factors),
                                   replications=e.replications),
            measure=e.measure,
            unit=e.unit,
            order_seed=spec.seed,
        )
        for e in spec.experiments
    ]
    figures = workloads.SIMULATED_FIGURES + (workloads.CAMPAIGN_FIGURE,)
    executor = make_executor(spec)
    tracer = probes = None
    simsys_dir = work / "simsys"
    if args.trace:
        tracer = Tracer()
        probes = Probes(tracer)
        install_campaign_probes(probes, executor)
        simsys_dir.mkdir()
        os.environ[workloads.SIMSYS_LOG_ENV] = str(simsys_dir)
    server = ServeProcess(work, camp_dir, spec.seed, args.trace)
    cold_hooks = ExecHooks()  # summed over cycles
    checks: dict[str, bool] = {}
    cycles, latencies, responses = [], [], []
    failed_tasks = 0

    def check(name: str, ok: bool) -> None:
        checks[name] = checks.get(name, True) and bool(ok)

    def campaign_run(hooks, *, overwrite: bool) -> dict:
        results = {}
        for exp in experiments:
            results[exp.name] = camp.run(
                exp, executor=executor, hooks=hooks, tracer=tracer,
                overwrite=overwrite, spill_rows=spec.spill_rows)
        return results

    def another_cycle(cycle: int) -> bool:
        # With --until: at least two cycles, then one more only while the
        # last one would still fit.
        if args.until is None:
            return cycle < spec.cycles
        last = cycles[-1]["total_s"][0] if cycles else 0.0
        return cycle < 2 or time.monotonic() + last <= args.until

    try:
        setup_s = time.monotonic() - args.launch
        setup_reference_s = ref_before = reference_s()
        from _refcomp import components
        comp_before = components(work)
        cycle = 0
        while another_cycle(cycle):
            if cycle:
                # A fresh campaign and figure cache under the same serve
                # process, so every cycle is cold again.
                shutil.rmtree(camp_dir)
                shutil.rmtree(fig_dir, ignore_errors=True)
                camp = Campaign.create(camp_dir, name=f"perfbench-{spec.name}")
            # Dirty pages of the previous cycle go to disk before the clock
            # starts, not during the next cold campaign.
            os.sync()
            t0 = time.perf_counter()
            cold = campaign_run(cold_hooks, overwrite=False)
            t1 = time.perf_counter()
            cold_digest = {k: datasets_digest(r) for k, r in cold.items()}

            rerun_times = []
            for _ in range(spec.warm_passes):
                hooks = ExecHooks()
                ta = time.perf_counter()
                warm = campaign_run(hooks, overwrite=True)
                rerun_times.append(time.perf_counter() - ta)
                check("warm_datasets_identical",
                      {k: datasets_digest(r) for k, r in warm.items()} == cold_digest)
                check("rerun_all_cache_hits", hooks.submitted == 0)
                failed_tasks += hooks.failed

            analyze_times = []
            for _ in range(spec.warm_passes):
                ta = time.perf_counter()
                loaded = Campaign.open(camp_dir)
                for name in loaded.names():
                    loaded.load(name).summary()
                if loaded.has_store():
                    store = loaded.store()
                    summary = streaming.summarize_store(store)
                analyze_times.append(time.perf_counter() - ta)
            if loaded.has_store():
                check("sketch_median_within_rank_bound",
                      check_sketch_median(store, summary))

            t3 = time.perf_counter()
            cold_responses = cold_renders(server.port, figures)
            t4 = time.perf_counter()
            etags = {figure_of(r["path"]): r["etag"] for r in cold_responses}
            burst = warm_burst(server.port, spec.requests, etags)
            t5 = time.perf_counter()

            service = FigureService(fig_dir, campaign=Campaign.open(camp_dir),
                                    quick=True, seed=spec.seed)
            keys = {fig: service.content_key(fig) for fig in figures}
            for name, ok in check_responses(cold_responses + burst, keys).items():
                check(name, ok)
            responses += cold_responses + burst
            burst_ms = [r["ms"] for r in burst]
            latencies += burst_ms
            percentiles = statistics.quantiles(burst_ms, n=100)
            ref_after = reference_s()
            comp_after = components(work)
            # Every figure is a list of samples: one per warm pass for the
            # warm phases, one per cycle for the others.
            cycles.append({
                "campaign_s": [t1 - t0],
                "rerun_s": rerun_times,
                "analyze_s": analyze_times,
                "render_s": [t4 - t3],
                "serve_rps": [len(burst) / (t5 - t4)],
                "serve_p50_ms": [percentiles[49]],
                "serve_p99_ms": [percentiles[98]],
                "total_s": [t5 - t0],
                # The host's speed around the cycle (see reference.py).
                "reference_s": [(ref_before + ref_after) / 2],
            })
            for k in comp_after:
                cycles[-1]["ref." + k] = [(comp_before[k] + comp_after[k]) / 2]
            ref_before, comp_before = ref_after, comp_after
            cycle += 1
    finally:
        serve_probes = server.stop()
        if hasattr(executor, "close"):
            executor.close()

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "trace": args.trace,
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "peak_rss_mib": rss_kb / 1024.0,
        "cycles": cycles,
        "latencies_ms": latencies,
        "tasks": spec.tasks * (1 + spec.warm_passes) * len(cycles),
        "failed_tasks": cold_hooks.failed + failed_tasks,
        "requests": len(responses),
        "bad_responses": [
            f'{r["status"]} {r["path"]}' for r in responses
            if r["status"] not in (200, 304)
        ],
        "checks": checks,
    }
    if args.trace:
        bench_probes = probes.export()
        out["layers"] = layer_metrics(spec, bench_probes, serve_probes,
                                      read_simsys_logs(simsys_dir), cold_hooks)
        out["spans"] = bench_probes["spans"] + serve_probes["spans"]
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    result = run(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
