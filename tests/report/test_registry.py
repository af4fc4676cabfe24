"""The figure registry and content-addressed FigureService.

Acceptance contract of the registry: every named figure renders strict
JSON, a valid Vega-Lite spec, a standalone HTML page, and a non-empty
text summary; a second
render with unchanged inputs is a cache hit that serves byte-identical
artifacts without re-running the builder; any change to the inputs — a
different seed, different params, or new campaign data — changes the
content key.
"""

from __future__ import annotations

import json
import threading
from datetime import datetime

import numpy as np
import pytest

from repro.core import Campaign
from repro.core.measurement import MeasurementSet
from repro.errors import ValidationError
from repro.obs import MetricsRegistry
from repro.report.registry import (
    FIGURES,
    FigureService,
    campaign_digest,
    content_key,
)
from repro.report.vega import VL_SCHEMA

SIMULATED = sorted(n for n, e in FIGURES.items() if not e.needs_campaign)
CAMPAIGN = sorted(n for n, e in FIGURES.items() if e.needs_campaign)

FORMATS = ("json", "vl.json", "html", "txt")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One quick-fidelity service shared by the module: renders are slow."""
    cache = tmp_path_factory.mktemp("figure-cache")
    return FigureService(cache, quick=True, seed=0)


@pytest.fixture(scope="module")
def rendered(service):
    """Every simulated figure rendered once, keyed by name."""
    return {name: service.render(name) for name in SIMULATED}


def _record(camp: Campaign, name: str, fill: float) -> None:
    camp.record(
        MeasurementSet(
            values=np.full(300, fill) + np.arange(300) * 1e-3,
            unit="us",
            name=name,
        ),
        spill_rows=100,
    )


@pytest.fixture()
def campaign(tmp_path):
    camp = Campaign.create(tmp_path / "camp", name="traj")
    _record(camp, "latency", 1.0)
    _record(camp, "bandwidth", 2.0)
    return camp


class TestRegistryShape:
    def test_all_seven_paper_figures_are_registered(self):
        for name in (
            "fig1_hpl", "fig2_normalization", "fig3_significance",
            "fig4_quantreg", "fig5_reduce", "fig6_rank_variation",
            "fig7ab_bounds", "fig7c_distribution",
        ):
            assert name in FIGURES

    def test_scenario_figures_are_registered(self):
        assert "scale_collectives" in FIGURES
        assert "chaos_degradation" in FIGURES
        assert "campaign_trajectory" in FIGURES
        assert FIGURES["campaign_trajectory"].needs_campaign

    def test_names_hides_campaign_figures_without_a_campaign(self, service):
        assert service.names() == SIMULATED

    def test_unknown_figure_is_a_validation_error(self, service):
        with pytest.raises(ValidationError, match="nope"):
            service.entry("nope")
        with pytest.raises(ValidationError):
            service.render("nope")


class TestEveryFigureRenders:
    @pytest.mark.parametrize("name", SIMULATED)
    def test_three_artifacts_exist(self, rendered, name):
        fig = rendered[name]
        for fmt in FORMATS:
            assert fig.path(fmt).is_file(), f"{name} missing {fmt}"

    @pytest.mark.parametrize("name", SIMULATED)
    def test_vega_lite_spec_is_valid_strict_json(self, rendered, name):
        text = rendered[name].path("vl.json").read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text
        spec = json.loads(
            text,
            parse_constant=lambda c: pytest.fail(f"non-strict token {c!r}"),
        )
        assert spec["$schema"] == VL_SCHEMA
        assert "layer" in spec or "mark" in spec or "facet" in spec

    @pytest.mark.parametrize("name", SIMULATED)
    def test_html_embeds_the_spec(self, rendered, name):
        html = rendered[name].path("html").read_text(encoding="utf-8")
        assert "<!DOCTYPE html>" in html
        assert "vegaEmbed" in html
        assert VL_SCHEMA in html

    @pytest.mark.parametrize("name", SIMULATED)
    def test_data_json_is_strict(self, rendered, name):
        payload = json.loads(
            rendered[name].path("json").read_text(encoding="utf-8"),
            parse_constant=lambda c: pytest.fail(f"non-strict token {c!r}"),
        )
        assert set(payload) == {"figure", "data", "provenance"}

    @pytest.mark.parametrize("name", SIMULATED)
    def test_text_summary_is_nonempty(self, rendered, name):
        text = rendered[name].text()
        assert text.strip() and text.endswith("\n")


class TestContentAddressing:
    def test_key_is_deterministic(self):
        entry = FIGURES["fig1_hpl"]
        params = dict(entry.quick_params)
        a = content_key(entry, params=params, seed=3)
        b = content_key(entry, params=dict(params), seed=3)
        assert a == b and len(a) == 32

    def test_key_depends_on_seed_and_params(self):
        entry = FIGURES["fig1_hpl"]
        params = dict(entry.quick_params)
        base = content_key(entry, params=params, seed=0)
        assert content_key(entry, params=params, seed=1) != base
        bumped = dict(params, n_runs=params["n_runs"] + 1)
        assert content_key(entry, params=bumped, seed=0) != base

    def test_second_render_is_a_byte_identical_cache_hit(
        self, service, rendered
    ):
        name = "fig7ab_bounds"
        first = rendered[name]
        assert not first.cached
        before = {fmt: first.path(fmt).read_bytes() for fmt in FORMATS}
        again = FigureService(
            service.cache_dir, quick=True, seed=0
        ).render(name)
        assert again.cached
        assert again.key == first.key
        for fmt in FORMATS:
            assert again.path(fmt).read_bytes() == before[fmt]

    def test_cache_hit_and_render_metrics(self, service, rendered):
        metrics = MetricsRegistry()
        svc = FigureService(
            service.cache_dir, quick=True, seed=0, metrics=metrics
        )
        svc.render("fig1_hpl")  # warmed by the module fixture
        assert metrics.get("repro_serve_cache_hits_total").value == 1.0
        assert metrics.get("repro_serve_renders_total").value == 0.0

    def test_older_cache_without_text_is_a_miss(self, tmp_path):
        """A key directory holding only the json/vl.json/html artifacts
        (written before the text format existed) is rebuilt, not served."""
        name = "fig7ab_bounds"
        first = FigureService(tmp_path, quick=True, seed=0).render(name)
        first.path("txt").unlink()
        again = FigureService(tmp_path, quick=True, seed=0).render(name)
        assert not again.cached
        assert again.key == first.key
        assert again.path("txt").read_text(encoding="utf-8").strip()

    def test_different_seed_renders_fresh(self, service, rendered):
        svc = FigureService(service.cache_dir, quick=True, seed=99)
        fig = svc.render("fig7ab_bounds")
        assert not fig.cached
        assert fig.key != rendered["fig7ab_bounds"].key

    def test_current_pointer_tracks_latest_key(self, service, rendered):
        name = "fig1_hpl"
        current = service.cache_dir / name / "current"
        assert current.read_text(encoding="utf-8").strip() == rendered[
            name
        ].key


class TestConcurrentColdRender:
    def test_threads_cold_rendering_one_figure_agree(self, tmp_path, monkeypatch):
        """Regression: threads cold-rendering one figure in one process
        shared a ``<artifact>.tmp.<pid>`` file, so one thread's rename
        found it already gone and its request failed.  Every thread must
        succeed and leave the bytes a serial render writes."""
        from repro.obs import provenance

        class FrozenDatetime(datetime):
            """Pins the provenance timestamp so renders compare bytewise."""

            @classmethod
            def now(cls, tz=None):
                return datetime(2026, 1, 1, tzinfo=tz)

        monkeypatch.setattr(provenance, "datetime", FrozenDatetime)
        name, n_threads = "fig1_hpl", 4
        serial = FigureService(tmp_path / "serial", quick=True, seed=0).render(name)
        expected = {fmt: serial.path(fmt).read_bytes() for fmt in FORMATS}
        for trial in range(3):
            svc = FigureService(tmp_path / f"trial{trial}", quick=True, seed=0)
            barrier = threading.Barrier(n_threads)
            rendered, errors = [], []

            def render():
                barrier.wait()
                try:
                    rendered.append(svc.render(name))
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)

            threads = [threading.Thread(target=render) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert len(rendered) == n_threads
            for fig in rendered:
                assert fig.key == serial.key
                for fmt in FORMATS:
                    assert fig.path(fmt).read_bytes() == expected[fmt]
            current = svc.cache_dir / name / "current"
            assert current.read_text(encoding="utf-8") == serial.key + "\n"


class TestCampaignFigures:
    def test_render_needs_a_campaign(self, tmp_path):
        svc = FigureService(tmp_path / "cache", quick=True)
        with pytest.raises(ValidationError, match="campaign"):
            svc.render("campaign_trajectory")

    def test_trajectory_renders_and_caches(self, tmp_path, campaign):
        svc = FigureService(tmp_path / "cache", campaign=campaign)
        assert "campaign_trajectory" in svc.names()
        first = svc.render("campaign_trajectory")
        assert not first.cached
        spec = json.loads(first.path("vl.json").read_text(encoding="utf-8"))
        assert spec["$schema"] == VL_SCHEMA
        assert "latency" in first.text() and "bandwidth" in first.text()
        again = svc.render("campaign_trajectory")
        assert again.cached and again.key == first.key

    def test_new_dataset_changes_the_key(self, tmp_path, campaign):
        svc = FigureService(tmp_path / "cache", campaign=campaign)
        before = svc.render("campaign_trajectory")
        digest_before = campaign_digest(campaign)
        _record(campaign, "jitter", 3.0)
        assert campaign_digest(campaign) != digest_before
        after = svc.render("campaign_trajectory")
        assert not after.cached
        assert after.key != before.key

    def test_etag_survives_a_value_identical_rerun(self, tmp_path):
        from repro.serve import handle_request

        camp = _spilled_run(tmp_path / "camp")
        metrics = MetricsRegistry()
        svc = FigureService(tmp_path / "cache", campaign=camp, metrics=metrics)
        path = "/figures/campaign_trajectory.vl.json"
        cold = handle_request(svc, "GET", path)
        etag = cold.headers["ETag"]
        renders = metrics.get("repro_serve_renders_total")
        assert cold.status == 200 and renders.value == 1.0
        camp.run(_ooc_experiment(), overwrite=True, spill_rows=100)
        warm = handle_request(svc, "GET", path, {"If-None-Match": etag})
        assert warm.status == 304 and renders.value == 1.0
        # A rerun that changes one value changes the key.
        name = camp.names()[0]
        old = camp.load(name)
        values = np.array(old.values)
        values[0] += 1.0
        camp.record(
            MeasurementSet(values=values, unit=old.unit, name=name,
                           metadata=old.metadata),
            overwrite=True,
            spill_rows=100,
        )
        changed = handle_request(svc, "GET", path, {"If-None-Match": etag})
        assert changed.status == 200 and changed.headers["ETag"] != etag
        assert renders.value == 2.0

    def test_empty_campaign_is_a_clean_error(self, tmp_path):
        camp = Campaign.create(tmp_path / "empty", name="empty")
        svc = FigureService(tmp_path / "cache", campaign=camp)
        with pytest.raises(ValidationError, match="no datasets"):
            svc.render("campaign_trajectory")


def ooc_measure(point, rep, rng):
    """A spill-worthy sample per task (module level, so any executor runs it)."""
    return rng.lognormal(mean=float(point["size"]) * 1e-3, sigma=0.2, size=300)


def _ooc_experiment():
    from repro.core import Experiment, Factor, FactorialDesign

    return Experiment(
        name="ooc",
        design=FactorialDesign((Factor("size", (64, 4096)),), replications=2),
        measure=ooc_measure,
        unit="us",
        seed=3,
    )


def _spilled_run(path) -> Campaign:
    camp = Campaign.create(path, name="ooc")
    camp.run(_ooc_experiment(), spill_rows=100)
    return camp


def _fanout_campaign(path, n: int = 96) -> Campaign:
    """A campaign of *n* small, unspilled datasets (perfbench ``fanout``)."""
    camp = Campaign.create(path, name="fanout")
    for i in range(n):
        camp.record(
            MeasurementSet(values=np.arange(8.0) + i, unit="us", name=f"d{i:03d}")
        )
    return camp


def _strip_index_digests(camp: Campaign) -> None:
    index = camp.path / "campaign.json"
    payload = json.loads(index.read_text())
    for d in payload["datasets"]:
        del d["digest"]
    index.write_text(json.dumps(payload, indent=2))


def _legacy_key(camp: Campaign) -> str:
    """The key formula of campaigns whose index records no file digests."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    index = camp.path / "campaign.json"
    h.update(index.read_bytes())
    for d in sorted(json.loads(index.read_text())["datasets"],
                    key=lambda d: d["name"]):
        h.update(d["name"].encode())
        h.update((camp.path / d["file"]).read_bytes())
    if camp.has_store():
        store = camp.store()
        for fp in store.fingerprints():
            h.update(fp.encode())
            h.update((store.entry_digest(fp) or "quarantined").encode())
    return h.hexdigest()


class TestCampaignDigest:
    """Campaign figure keys come from the digests the store recorded."""

    def test_reads_no_value_bytes(self, campaign, monkeypatch):
        from repro.store import ShardStore

        def boom(*args, **kwargs):
            raise AssertionError("campaign_digest read spilled values")

        monkeypatch.setattr(ShardStore, "iter_chunks", boom)
        monkeypatch.setattr(np, "memmap", boom)
        assert campaign_digest(campaign)

    def test_unchanged_on_reopen(self, campaign):
        assert campaign_digest(Campaign.open(campaign.path)) == campaign_digest(
            campaign
        )

    def test_overwrite_with_other_values_changes_it(self, campaign):
        before = campaign_digest(campaign)
        camp = Campaign.open(campaign.path)
        camp.record(
            MeasurementSet(values=np.full(300, 9.0), unit="us", name="latency"),
            overwrite=True,
            spill_rows=100,
        )
        assert campaign_digest(camp) != before

    @pytest.mark.parametrize("damage", ["delete", "truncate"])
    def test_lost_shard_changes_it(self, campaign, damage):
        before = campaign_digest(campaign)
        shard = sorted((campaign.path / "store").glob("shard-*.npy"))[0]
        if damage == "delete":
            shard.unlink()
        else:
            shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert campaign_digest(campaign) != before

    def test_manifest_without_entry_digests_keys_the_same(self, campaign):
        """Stores written before entries recorded digests keep their keys."""
        before = campaign_digest(campaign)
        manifest = campaign.path / "store" / "manifest.json"
        payload = json.loads(manifest.read_text())
        assert all("digest" in e for e in payload["entries"].values())
        for entry in payload["entries"].values():
            del entry["digest"]
        manifest.write_text(json.dumps(payload))
        assert campaign_digest(campaign) == before

    def test_campaign_get_digests_once(self, tmp_path, campaign, monkeypatch):
        import repro.report.registry as registry
        from repro.serve import handle_request

        calls = []
        original = registry.campaign_digest

        def counting(camp):
            calls.append(camp)
            return original(camp)

        monkeypatch.setattr(registry, "campaign_digest", counting)
        svc = FigureService(tmp_path / "cache", campaign=campaign)
        path = "/figures/campaign_trajectory.vl.json"
        cold = handle_request(svc, "GET", path)
        assert cold.status == 200 and len(calls) == 1
        warm = handle_request(svc, "GET", path)
        assert warm.status == 200 and len(calls) == 2
        assert warm.headers["X-Repro-Cached"] == "1"
        assert warm.headers["ETag"] == f'"{svc.content_key("campaign_trajectory")}"'

    def test_finished_run_leaves_no_unsealed_shard(self, tmp_path):
        camp = _spilled_run(tmp_path / "camp")
        manifest = camp.path / "store" / "manifest.json"
        shards = json.loads(manifest.read_text())["shards"]
        # Task results share one shard; the run's spilled datasets another.
        assert len(camp.names()) == 2 and len(shards) == 2
        assert all(s["sealed"] and s["digest"] for s in shards.values())
        before = manifest.read_bytes()
        campaign_digest(camp)
        assert manifest.read_bytes() == before

    def test_record_leaves_no_unsealed_shard(self, campaign):
        manifest = campaign.path / "store" / "manifest.json"
        shards = json.loads(manifest.read_text())["shards"]
        assert len(shards) == 2
        assert all(s["sealed"] for s in shards.values())

    def test_warm_requests_open_no_dataset_file(self, tmp_path, monkeypatch):
        import builtins
        import io

        from repro.serve import handle_request

        camp = _fanout_campaign(tmp_path / "camp")
        svc = FigureService(tmp_path / "cache", campaign=camp)
        path = "/figures/campaign_trajectory.vl.json"
        assert handle_request(svc, "GET", path).status == 200
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        warm = handle_request(svc, "GET", path)
        catalog = handle_request(svc, "GET", "/figures")
        monkeypatch.undo()
        assert warm.status == 200 and warm.headers["X-Repro-Cached"] == "1"
        assert catalog.status == 200
        in_campaign = [f for f in opened if f.startswith(str(camp.path))]
        assert in_campaign == [str(camp.path / "campaign.json")] * 2

    def test_stripped_digests_key_from_files(self, campaign):
        _strip_index_digests(campaign)
        before = campaign_digest(campaign)
        assert before == _legacy_key(campaign)
        dataset = campaign.path / "latency.json"
        dataset.write_bytes(dataset.read_bytes() + b"\n")
        assert campaign_digest(campaign) != before
        assert campaign.load("latency").n == 300

    def test_overwrite_changes_exactly_one_digest(self, tmp_path):
        camp = _fanout_campaign(tmp_path / "camp", n=4)

        def digests():
            index = json.loads((camp.path / "campaign.json").read_text())
            return {d["name"]: d["digest"] for d in index["datasets"]}

        before, key = digests(), campaign_digest(camp)
        camp.record(
            MeasurementSet(values=np.full(8, 9.0), unit="us", name="d002"),
            overwrite=True,
        )
        after = digests()
        assert [n for n in before if before[n] != after[n]] == ["d002"]
        assert campaign_digest(camp) != key

    def test_dataset_edited_in_place_fails_loudly(self, tmp_path, campaign):
        from repro.errors import IntegrityError
        from repro.serve import handle_request

        dataset = campaign.path / "bandwidth.json"
        dataset.write_bytes(dataset.read_bytes().replace(b'"us"', b'"ms"'))
        with pytest.raises(IntegrityError, match="bandwidth.json"):
            campaign.load("bandwidth")
        svc = FigureService(tmp_path / "cold", campaign=campaign)
        cold = handle_request(svc, "GET", "/figures/campaign_trajectory.json")
        assert cold.status == 500
        assert b"bandwidth.json" in cold.body

    def test_each_shard_size_checked_once(self, tmp_path, monkeypatch):
        import repro.store.store as store_mod

        camp = _spilled_run(tmp_path / "camp")
        checked = []
        real = store_mod.check_size

        def counting(path, rows):
            checked.append(path)
            return real(path, rows)

        monkeypatch.setattr(store_mod, "check_size", counting)
        campaign_digest(camp)
        store = camp.store()
        assert len(store) > len(store.shards())
        assert sorted(checked) == sorted(
            str(store.path / s["file"]) for s in store.shards()
        )


class TestDescribe:
    def test_describe_carries_key_and_formats(self, service, rendered):
        info = service.describe("fig1_hpl")
        assert info["name"] == "fig1_hpl"
        assert info["key"] == rendered["fig1_hpl"].key
        assert info["needs_campaign"] is False
        assert set(info["formats"]) == set(FORMATS)

    def test_payload_round_trips(self, service, rendered):
        body, fig = service.payload("fig1_hpl", "vl.json")
        assert body == rendered["fig1_hpl"].path("vl.json").read_bytes()
        assert fig.cached

    def test_catalog_keys_each_simulated_entry_once(
        self, tmp_path, campaign, monkeypatch
    ):
        import repro.report.registry as registry
        from repro.serve import handle_request

        keyed = []
        original = registry.content_key

        def counting(entry, **kwargs):
            keyed.append(entry.name)
            return original(entry, **kwargs)

        monkeypatch.setattr(registry, "content_key", counting)
        svc = FigureService(tmp_path / "cache", campaign=campaign)
        for _ in range(2):
            assert handle_request(svc, "GET", "/figures").status == 200
        assert sorted(keyed) == sorted(SIMULATED + CAMPAIGN * 2)
