"""The CI ``store-smoke`` gate: the out-of-core shard store (docs/STORE.md).

A spilled multi-shard campaign and its integrity checks, the upgrade of
every older on-disk generation, and the out-of-core analysis under its
memory cap with the compare gate over it.
"""

from __future__ import annotations

import json
import shutil

import pytest
from conftest import ROOT, python, repro

#: A spilled campaign: every dataset and cached task result of 256+ rows
#: lives in the columnar shard store.
SPILLED = ("--samples", 2000, "--reps", 2, "--workers", 2, "--spill-rows", 256)

#: One committed campaign per older on-disk generation.
FORMATS = sorted((ROOT / "tests/store/data/formats").glob("*/campaign"))


def du(path):
    """Apparent bytes of *path* and all under it, as ``du -sb`` counts."""
    return sum(p.lstat().st_size for p in [path, *path.rglob("*")])


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("store-smoke", numbered=False)


@pytest.fixture(scope="module")
def camp(out):
    repro("campaign", "--dir", out / "camp", *SPILLED)
    assert (out / "camp/store/manifest.json").stat().st_size > 0
    return out / "camp"


def test_unchanged_rerun_appends_nothing(camp):
    # Every task of the rerun is a cache hit, and the store keeps its
    # dataset entries.
    before = du(camp / "store")
    repro("campaign", "--dir", camp, *SPILLED)
    after = du(camp / "store")
    assert before == after, f"rerun grew the store: {before} -> {after} bytes"


def test_verify_reproves_every_shard_digest(camp, out):
    repro("store", "verify", camp, "--out", out)


def test_inspect(camp):
    json.loads(repro("store", "inspect", camp, "--json").stdout)


@pytest.mark.parametrize("fixture", FORMATS, ids=lambda p: p.parent.name)
def test_older_format_upgrades_once(fixture, tmp_path):
    # A read refuses the tree and names the upgrade; `store compact`
    # upgrades it; then it renders, verifies, and every entry records its
    # digest (docs/STORE.md, "Older formats").
    copy = tmp_path / "campaign"
    shutil.copytree(fixture, copy)
    render = ("render", "campaign_trajectory", "--quick", "--campaign", copy,
              "--cache-dir", tmp_path / "figures")
    refused = repro(*render, expect=None)
    assert refused.returncode != 0, "render of an older tree succeeded"
    assert "repro store compact" in refused.stdout + refused.stderr, refused.stderr
    repro("store", "compact", copy)
    repro(*render)
    repro("store", "verify", copy)
    index = json.loads((copy / "campaign.json").read_text())
    manifest = json.loads((copy / "store/manifest.json").read_text())
    missing = [d["name"] for d in index["datasets"] if not d.get("digest")]
    missing += [fp for fp, e in manifest["entries"].items() if not e.get("digest")]
    assert not missing, f"no digest for {missing}"


@pytest.fixture(scope="module")
def outofcore(out, tmp_path_factory):
    """Two suites of three runs (the compare gate's top-level replication)
    of the out-of-core benchmark: 48 MiB of raw samples whose write,
    streaming summaries, figure export, chunked bootstrap and comparison
    must all finish under a 24 MiB tracemalloc heap cap."""
    suites = out / "base.json", out / "fresh.json"
    for suite in suites:
        for _ in range(3):
            python("-m", "pytest", "benchmarks/bench_store_outofcore.py", "-x", "-q",
                   "--basetemp", tmp_path_factory.mktemp("outofcore"),
                   env={"REPRO_BENCH_STORE_OUT": suite})
    return suites


def test_outofcore_analysis_under_the_memory_cap(outofcore):
    for suite in outofcore:
        assert suite.stat().st_size > 0


def test_outofcore_compare_gate(outofcore, out):
    # Same host, same commit: beyond-10% regressions between the two
    # suites mean broken chunking, not noise (see docs/COMPARE.md).
    repro("compare", *outofcore, "--min-effect", "0.10",
          "--out", out / "report-compare")
