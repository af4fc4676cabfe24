"""The CI ``report-smoke`` gate: the figure registry and the report server
over a spilled campaign (docs/REPORT.md)."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import ENV, ROOT, python, repro

FIGURES = ("fig7ab_bounds", "ablation_ci", "extension_screening", "campaign_trajectory")
SPILLED = ("--samples", 2000, "--reps", 2, "--spill-rows", 256)


@pytest.fixture(scope="module")
def camp(tmp_path_factory):
    """A spilled campaign for the trajectory figure."""
    camp = tmp_path_factory.mktemp("report-smoke", numbered=False) / "camp"
    repro("campaign", "--dir", camp, *SPILLED)
    return camp


def render(camp, cache, *args, expect=0):
    return repro("render", *args, "--quick", "--campaign", camp,
                 "--cache-dir", cache, expect=expect)


@pytest.fixture(scope="module")
def cold(camp):
    """The cache directory after a cold render of :data:`FIGURES`, and
    that render's output."""
    cache = camp.parent / "cache"
    return cache, render(camp, cache, *FIGURES).stdout


def tree(path):
    """Every file under *path* and its bytes."""
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}


def test_cold_render_builds_every_figure(cold):
    for fig in FIGURES:
        assert f"{fig}: built" in cold[1], fig


def test_one_nonempty_text_summary_per_figure(cold):
    cache, _ = cold
    for fig in FIGURES:
        texts = [p for p in (cache / fig).rglob("*.txt") if p.stat().st_size > 0]
        assert len(texts) == 1, f"{fig}: {len(texts)} non-empty .txt artifact(s)"


def test_second_render_is_a_byte_identical_cache_hit(cold, camp, tmp_path):
    cache, _ = cold
    before = tree(cache)
    warm = render(camp, cache, *FIGURES, "--emit-metrics", tmp_path / "metrics.json").stdout
    for fig in FIGURES:
        assert f"{fig}: cache" in warm, fig
    assert tree(cache) == before
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["repro_serve_cache_hits_total"]["value"] == 4.0, metrics
    assert metrics["repro_serve_renders_total"]["value"] == 0.0, metrics


def test_index_digests_match_the_dataset_files(camp):
    # Figure keys come from the digests campaign.json records.
    datasets = json.loads((camp / "campaign.json").read_text())["datasets"]
    assert datasets, "campaign lists no datasets"
    for d in datasets:
        digest = hashlib.blake2b((camp / d["file"]).read_bytes(), digest_size=16)
        assert d.get("digest") == digest.hexdigest(), d["file"]


def test_an_edited_dataset_file_fails_the_render(camp, tmp_path):
    edited = tmp_path / "camp"
    shutil.copytree(camp, edited)
    file = sorted(edited.glob("synthetic-latency*.json"))[0]
    with file.open("a") as fh:
        fh.write(" ")
    failed = render(edited, tmp_path / "cache", "campaign_trajectory", expect=None)
    output = failed.stdout + failed.stderr
    assert failed.returncode != 0, f"render of an edited campaign exited 0\n{output}"
    assert file.name in output, output


def test_value_identical_rerun_writes_no_dataset_file_and_no_index(camp, cold):
    # Run fields (timestamps, exec and cache counters) live in runs.json,
    # so reproducing every value leaves the dataset files, campaign.json
    # and the campaign figure's key as they were.
    def snapshot():
        index = camp / "campaign.json"
        files = [index] + [camp / d["file"] for d in json.loads(index.read_bytes())["datasets"]]
        return index.read_bytes(), {
            p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in files
        }

    before = snapshot()
    repro("campaign", "--dir", camp, *SPILLED)
    assert snapshot() == before
    rerun = render(camp, cold[0], "campaign_trajectory").stdout
    assert "campaign_trajectory: cache" in rerun


def test_artifacts_are_strict_json_and_vega_lite_shells(cold):
    cache, _ = cold

    def fail(token):
        raise AssertionError(f"non-strict JSON token {token!r}")

    for p in cache.rglob("*.json"):
        text = p.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text, p
        spec = json.loads(text, parse_constant=fail)
        if p.name.endswith(".vl.json"):
            assert spec["$schema"].startswith("https://vega.github.io/schema/vega-lite"), p
    html = list(cache.rglob("*.html"))
    assert len(html) >= 4, html


def test_serve_and_revalidate_over_http(camp, cold):
    # Ephemeral port; the bound URL comes from the ready banner on stderr.
    # Then the catalog, ETag revalidation, one build shared by two
    # concurrent cold requests, and the Prometheus endpoint.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quick",
         "--campaign", str(camp), "--cache-dir", str(cold[0])],
        cwd=ROOT, env=ENV, stderr=subprocess.PIPE, text=True)
    try:
        banner = proc.stderr.readline()
        url = next(w for w in banner.split() if w.startswith("http://"))
        with urllib.request.urlopen(f"{url}/figures", timeout=30) as r:
            names = [c["name"] for c in json.load(r)["figures"]]
        assert "campaign_trajectory" in names, names
        fig = f"{url}/figures/fig7ab_bounds.vl.json"
        with urllib.request.urlopen(fig, timeout=60) as r:
            etag = r.headers["ETag"]
            assert r.headers["X-Repro-Cached"] == "1", "cache miss"
            json.load(r)
        with pytest.raises(urllib.error.HTTPError) as revalidated:
            urllib.request.urlopen(
                urllib.request.Request(fig, headers={"If-None-Match": etag}), timeout=30)
        assert revalidated.value.code == 304
        with urllib.request.urlopen(f"{url}/figures/fig7ab_bounds.txt", timeout=60) as r:
            assert r.headers["Content-Type"].startswith("text/plain"), r.headers
            assert r.read().strip(), "empty text summary"

        def fetch(url):
            with urllib.request.urlopen(url, timeout=300) as r:
                return r.status, r.headers["ETag"], r.read()

        cold_fig = f"{url}/figures/fig1_hpl.vl.json"  # not rendered above
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(fetch, [cold_fig] * 2, timeout=300))
        assert [g[0] for g in got] == [200, 200], got
        assert got[0][1:] == got[1][1:], "ETags differ"
        with urllib.request.urlopen(f"{url}/metrics", timeout=30) as r:
            metrics = r.read().decode()
        assert "repro_serve_requests_total" in metrics
        assert "\nrepro_serve_renders_total 1\n" in metrics, "not one render"
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_cold_render_bench_records_every_served_figure(tmp_path, monkeypatch):
    # Each figure perfbench's serve phase builds cold gets a
    # report_registry_cold record of one run of at least 5 renders, in
    # the suite REPRO_BENCH_REGISTRY_OUT names.
    suite = tmp_path / "registry.json"
    python("-c", "import sys; sys.path.insert(0, 'benchmarks'); "
           "import bench_report_registry as b; b.bench_cold_render()",
           env={"REPRO_BENCH_REGISTRY_OUT": suite})
    monkeypatch.syspath_prepend(ROOT / "benchmarks")
    monkeypatch.syspath_prepend(ROOT / "perfbench")
    from bench_report_registry import COLD_FIGURES, SEED
    from workloads import CAMPAIGN_FIGURE, SIMULATED_FIGURES

    from repro.compare import BenchSuiteResult, record_key

    assert COLD_FIGURES == SIMULATED_FIGURES + (CAMPAIGN_FIGURE,)
    records = BenchSuiteResult.load(suite).records
    for fig in COLD_FIGURES:
        key = record_key("report_registry_cold",
                         {"figure": fig, "fidelity": "quick", "seed": SEED})
        assert key in records, f"no cold-render record for {fig}"
        runs = records[key].samples
        assert len(runs) == 1 and len(runs[0]) >= 5, (fig, runs)
