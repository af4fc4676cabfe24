"""Older on-disk formats: refused on read, brought forward by one upgrade.

Each fixture under ``data/formats/<rev>/`` is a campaign written by the
source tree at git revision ``<rev>`` (see data/formats/README.md), with
what that tree itself loaded from it in ``expected.json``:

* ``9c70674``: name-only dataset store keys, no store or index digests,
  run fields inline in dataset files;
* ``db765ac``: namespaced keys, otherwise as above;
* ``6301aad``: store entries record digests;
* ``9532821``: index entries record digests; run fields still inline;
* ``ec8ebab``: a current campaign whose store is at schema 2 (no journal,
  a payload digest per shard besides each entry's).
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _demo_measure, main
from repro.core import Campaign, Experiment, Factor, FactorialDesign, MeasurementSet
from repro.core.campaign import FORMAT
from repro.core.upgrade import upgrade
from repro.errors import FormatError, IntegrityError, ValidationError
from repro.exec import ExecHooks
from repro.report.export import dataset_fingerprint, split_run_fields
from repro.report.registry import FigureService, campaign_digest
from repro.store import STORE_SCHEMA_VERSION, ShardStore

FORMATS = Path(__file__).parent / "data" / "formats"
REVS = ["9c70674", "db765ac", "6301aad", "9532821", "ec8ebab"]

#: Keys the trees before the current one merged from a spilled dataset's
#: store entry into its metadata; the current tree leaves them in the store.
STORE_METADATA = {"dataset", "namespace"}


@pytest.fixture(params=REVS)
def old(request, tmp_path) -> Path:
    """A copy of one fixture campaign, in its original format."""
    return Path(shutil.copytree(FORMATS / request.param / "campaign",
                                tmp_path / request.param))


def expected(camp_dir: Path) -> dict:
    return json.loads((FORMATS / camp_dir.name / "expected.json").read_text())


def values_digest(ms: MeasurementSet) -> str:
    values = np.ascontiguousarray(ms.values, dtype="<f8")
    return hashlib.blake2b(values, digest_size=16).hexdigest()


def snapshot(path: Path) -> dict:
    """Every file under *path*: its bytes and mtime_ns."""
    return {
        str(f.relative_to(path)): (f.read_bytes(), f.stat().st_mtime_ns)
        for f in sorted(path.rglob("*")) if f.is_file()
    }


def demo_experiment(samples: int = 64, reps: int = 2) -> Experiment:
    """The experiment ``repro campaign --samples 64 --reps 2`` runs."""
    return Experiment(
        name="synthetic-latency",
        design=FactorialDesign(
            (Factor("size", (64, 4096)), Factor("batch", (samples,))),
            replications=reps,
        ),
        measure=_demo_measure,
        unit="s",
        seed=0,
    )


class TestReadOnlyOpensRefuse:
    def test_campaign_reads_raise_format_error(self, old):
        camp = Campaign.open(old)
        name = next(iter(expected(old)))
        reads = [lambda: camp.load(name), lambda: campaign_digest(camp)]
        if "format" not in json.loads((old / "campaign.json").read_text()):
            reads.append(camp.names)  # a current index lists without the store
        for read in reads:
            with pytest.raises(FormatError, match="repro store compact"):
                read()

    def test_store_open_raises_format_error(self, old):
        with pytest.raises(FormatError, match="repro store compact"):
            ShardStore(old / "store")

    @pytest.mark.parametrize("action", ["inspect", "verify"])
    def test_store_cli_names_the_upgrade(self, old, action, capsys):
        before = snapshot(old)
        assert main(["store", action, str(old)]) == 2
        assert "repro store compact" in capsys.readouterr().err
        assert snapshot(old) == before


class TestUpgrade:
    def test_loads_what_each_tree_wrote(self, old):
        assert upgrade(old)
        camp = Campaign.open(old)
        files = {d["name"]: old / d["file"] for d in camp._read_datasets()}
        want = expected(old)
        assert sorted(files) == sorted(want)
        for name, rec in want.items():
            ms = camp.load(name)
            assert values_digest(ms) == rec["values_digest"]
            assert (ms.n, ms.unit) == (rec["n"], rec["unit"])
            metadata = rec["metadata"]
            if "store" in json.loads(files[name].read_text()):
                metadata = {k: v for k, v in metadata.items()
                            if k not in STORE_METADATA}
            assert ms.metadata == metadata

    def test_one_pass_leaves_no_older_format(self, old):
        assert upgrade(old)
        index = json.loads((old / "campaign.json").read_text())
        assert index["format"] == FORMAT
        manifest = json.loads((old / "store" / "manifest.json").read_text())
        assert manifest["schema_version"] == STORE_SCHEMA_VERSION
        assert not any("digest" in s for s in manifest["shards"].values())
        camp = Campaign.open(old)
        store = camp.store()
        for fp in store.fingerprints():
            values, _ = store.get(fp)
            assert manifest["entries"][fp]["digest"] == values_digest(
                MeasurementSet(values=np.asarray(values), unit="s"))
        for d in index["datasets"]:
            data = (old / d["file"]).read_bytes()
            assert hashlib.blake2b(data, digest_size=16).hexdigest() == d["digest"]
            payload = json.loads(data)
            assert split_run_fields(payload["metadata"])[1] == {}
            if "store" in payload:
                fp = dataset_fingerprint(d["name"], namespace=camp.dataset_namespace)
                assert payload["store"]["fingerprint"] == fp
                assert store.metadata(fp)["namespace"] == camp.dataset_namespace

    def test_second_upgrade_writes_nothing(self, old):
        assert upgrade(old)
        key = campaign_digest(Campaign.open(old))
        before = snapshot(old)
        assert not upgrade(old)
        assert snapshot(old) == before
        assert campaign_digest(Campaign.open(old)) == key

    def test_compact_upgrades_then_renders(self, old, tmp_path, capsys):
        render = ["render", "campaign_trajectory", "--quick", "--campaign",
                  str(old), "--cache-dir", str(tmp_path / "figures")]
        assert main(render) == 2
        assert "repro store compact" in capsys.readouterr().err
        assert main(["store", "compact", str(old)]) == 0
        assert "upgraded" in capsys.readouterr().out
        assert main(render) == 0
        assert main(["store", "verify", str(old)]) == 0

    def test_run_upgrades_first_and_hits_the_cache(self, old):
        hooks = ExecHooks()
        Campaign.open(old).run(demo_experiment(), hooks=hooks, overwrite=True,
                               spill_rows=48)
        assert (hooks.submitted, hooks.cached) == (0, 4)
        camp = Campaign.open(old)
        for name, rec in expected(old).items():
            assert values_digest(camp.load(name)) == rec["values_digest"]

    def test_record_upgrades_first(self, old):
        camp = Campaign.open(old)
        camp.record(MeasurementSet(values=np.arange(4.0), unit="us", name="new"))
        assert json.loads((old / "campaign.json").read_text())["format"] == FORMAT
        assert sorted(camp.names()) == sorted([*expected(old), "new"])


def test_compact_keeps_values_entry_digests_and_figure_keys(tmp_path):
    """``repro store compact`` brings a schema 2 store to the current
    schema: each shard's payload digest is checked and dropped, while
    the values, the entry digests and so every campaign figure's content
    key stay what the tree that wrote it had."""
    old = Path(shutil.copytree(FORMATS / "ec8ebab" / "campaign", tmp_path / "ec8ebab"))
    manifest = old / "store" / "manifest.json"
    before = json.loads(manifest.read_text())
    assert before["schema_version"] == 2
    assert all(s["digest"] for s in before["shards"].values())
    index = (old / "campaign.json").read_bytes()
    assert main(["store", "compact", str(old)]) == 0
    after = json.loads(manifest.read_text())
    assert after["schema_version"] == STORE_SCHEMA_VERSION == 3
    assert not any("digest" in s for s in after["shards"].values())
    assert {fp: e["digest"] for fp, e in after["entries"].items()} == {
        fp: e["digest"] for fp, e in before["entries"].items()}
    assert (old / "campaign.json").read_bytes() == index
    camp = Campaign.open(old)
    for name, rec in expected(old).items():
        assert values_digest(camp.load(name)) == rec["values_digest"]
    keys = json.loads((FORMATS / "ec8ebab" / "figure_keys.json").read_text())
    service = FigureService(tmp_path / "figures", campaign=camp, quick=True)
    assert keys and {name: service.content_key(name) for name in keys} == keys


def test_upgrade_quarantines_a_shard_failing_its_digest(tmp_path):
    """A schema 2 shard whose bytes no longer match its recorded payload
    digest is moved aside at the upgrade, its entries dropped; a rerun
    re-measures what it held."""
    old = Path(shutil.copytree(FORMATS / "ec8ebab" / "campaign", tmp_path / "ec8ebab"))
    shard = old / "store" / "shard-00000.npy"
    with shard.open("r+b") as fh:
        fh.seek(200)
        byte = fh.read(1)
        fh.seek(200)
        fh.write(bytes([byte[0] ^ 0xFF]))
    assert upgrade(old)
    assert not shard.exists() and shard.with_name(shard.name + ".corrupt").exists()
    store = ShardStore(old / "store")
    assert [s["file"] for s in store.shards()] == ["shard-00001.npy"]
    assert store.verify()["ok"]


def unstamped_campaign(path: Path) -> Campaign:
    """A campaign as written just before the format stamp: current in
    every other respect.  Its two spilled datasets hold 16 values; an
    inline one holds 32."""
    camp = Campaign.create(path, name="unstamped")
    camp.run(demo_experiment(samples=8), spill_rows=8)
    camp.record(MeasurementSet(values=np.arange(32.0), unit="us",
                               name="long inline"))
    for file, field, value in (("campaign.json", "format", None),
                               ("store/manifest.json", "schema_version", 1)):
        payload = json.loads((camp.path / file).read_text())
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        (camp.path / file).write_text(json.dumps(payload))
    return camp


def test_unstamped_current_tree_upgrades_by_the_stamp_alone(tmp_path):
    """A campaign written just before the format stamp needs nothing
    else: the upgrade rewrites the index and the store manifest only,
    and each dataset stays spilled or inline, whatever its length."""
    camp = unstamped_campaign(tmp_path / "c")
    before = snapshot(camp.path)
    assert upgrade(camp.path)
    after = snapshot(camp.path)
    assert sorted(k for k in after if after[k] != before.get(k)) == [
        "campaign.json", "store/manifest.json"]


class TestUpgradeCarriesDamageForward:
    """A dataset the upgrade cannot load keeps its file and index entry:
    it alone fails to load, and recording it again repairs it."""

    @pytest.fixture(params=["9532821", "unstamped"])
    def digested(self, request, tmp_path) -> Path:
        """An older tree whose index records file digests."""
        if request.param == "unstamped":
            return unstamped_campaign(tmp_path / "unstamped").path
        return Path(shutil.copytree(FORMATS / request.param / "campaign",
                                    tmp_path / request.param))

    def test_file_edited_in_place_stays_an_integrity_error(self, digested):
        victim, *rest = json.loads(
            (digested / "campaign.json").read_text())["datasets"]
        file = digested / victim["file"]
        payload = json.loads(file.read_text())
        payload["unit"] = "ms"
        file.write_text(json.dumps(payload))
        edited = file.read_bytes()
        assert upgrade(digested)
        assert file.read_bytes() == edited
        camp = Campaign.open(digested)
        with pytest.raises(IntegrityError, match="does not match the digest"):
            camp.load(victim["name"])
        for d in rest:
            camp.load(d["name"])
        ms = MeasurementSet(values=np.arange(4.0), unit="us", name=victim["name"])
        camp.record(ms, overwrite=True)
        assert camp.load(victim["name"]).values.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_lost_shard_fails_that_dataset_alone(self, old):
        """Losing the shard of one dataset fails the datasets stored in
        it (that one alone in the trees that gave each spilled dataset
        its own shard; both spilled datasets of the run since the run's
        datasets share one) and no other."""
        want = expected(old)
        name = "synthetic-latency @ {'batch': 64, 'size': 4096}"
        manifest = json.loads((old / "store" / "manifest.json").read_text())
        shard, = {e["shard"] for e in manifest["entries"].values()
                  if e["metadata"].get("dataset") == name}
        lost = {e["metadata"].get("dataset") for e in manifest["entries"].values()
                if e["shard"] == shard} - {None}
        assert name in lost and "small inline" not in lost
        (old / "store" / shard).unlink()
        assert upgrade(old)
        camp = Campaign.open(old)
        assert sorted(camp.names()) == sorted(want)
        for gone in lost:
            with pytest.raises(ValidationError):
                camp.load(gone)
        for other, rec in want.items():
            if other not in lost:
                assert values_digest(camp.load(other)) == rec["values_digest"]
        ms = MeasurementSet(values=np.arange(64.0), unit="s", name=name)
        camp.record(ms, overwrite=True, spill_rows=48)
        assert camp.load(name).values.tolist() == ms.values.tolist()


class TestCurrentFormatWithoutDigest:
    def test_index_entry_without_digest_is_an_error(self, tmp_path):
        camp = Campaign.create(tmp_path / "c", name="c")
        camp.record(MeasurementSet(values=np.arange(8.0), unit="us", name="d"))
        index = camp.path / "campaign.json"
        payload = json.loads(index.read_text())
        del payload["datasets"][0]["digest"]
        index.write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match="'d'"):
            Campaign.open(camp.path).load("d")

    def test_store_entry_without_digest_is_an_error(self, tmp_path):
        with ShardStore(tmp_path) as store:
            store.append("a" * 32, np.arange(5.0))
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        del payload["entries"]["a" * 32]["digest"]
        manifest.write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match="a" * 32):
            ShardStore(tmp_path)
