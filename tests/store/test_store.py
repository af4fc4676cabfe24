"""Tests for the columnar shard store (:mod:`repro.store.store`)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import IntegrityError, ValidationError
from repro.store import DEFAULT_SHARD_ROWS, STORE_SCHEMA_VERSION, ShardStore


def fill(store, n_entries=5, rows=40, seed=0):
    rng = np.random.default_rng(seed)
    data = {}
    for i in range(n_entries):
        fp = f"{i:032x}"
        data[fp] = rng.lognormal(size=rows)
        store.append(fp, data[fp], {"i": i})
    return data


class TestRoundTrip:
    def test_append_get_bitwise(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=100)
        data = fill(store)
        for fp, values in data.items():
            got, md = store.get(fp)
            assert np.array_equal(got, values)
            assert md["i"] == int(fp, 16)
            assert not got.flags.writeable

    def test_reopen_reads_back(self, tmp_path):
        with ShardStore(tmp_path, shard_rows=100) as store:
            data = fill(store)
        store2 = ShardStore(tmp_path)
        assert store2.fingerprints() == sorted(data)
        for fp, values in data.items():
            got, _ = store2.get(fp)
            assert np.array_equal(got, values)

    def test_shards_roll_at_capacity(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=100)
        fill(store, n_entries=6, rows=40)  # 240 rows -> 3 shards of <=100
        assert store.stats().shards == 3

    def test_entry_never_spans_shards(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=10)
        big = np.arange(25.0)  # oversize: gets its own dedicated shard
        store.append("a" * 32, np.arange(5.0))
        store.append("b" * 32, big)
        got, _ = store.get("b" * 32)
        assert np.array_equal(got, big)

    def test_duplicate_fingerprint_refused(self, tmp_path):
        store = ShardStore(tmp_path)
        store.append("a" * 32, np.arange(3.0))
        with pytest.raises(ValidationError, match="already holds"):
            store.append("a" * 32, np.arange(3.0))

    def test_bad_values_refused(self, tmp_path):
        store = ShardStore(tmp_path)
        with pytest.raises(ValidationError):
            store.append("a" * 32, np.array([]))
        with pytest.raises(ValidationError):
            store.append("a" * 32, np.ones((2, 2)))
        with pytest.raises(ValidationError):
            store.append("a" * 32, np.array([1.0, np.nan]))

    def test_iter_chunks_covers_everything(self, tmp_path):
        store = ShardStore(tmp_path)
        data = fill(store, n_entries=1, rows=105)
        fp = next(iter(data))
        chunks = list(store.iter_chunks(fp, chunk_rows=32))
        assert [c.size for c in chunks] == [32, 32, 32, 9]
        assert np.array_equal(np.concatenate(chunks), data[fp])
        with pytest.raises(KeyError):
            list(store.iter_chunks("f" * 32))

    def test_container_protocol(self, tmp_path):
        store = ShardStore(tmp_path)
        fill(store, n_entries=3)
        assert len(store) == 3
        assert f"{0:032x}" in store
        assert "f" * 32 not in store
        assert store.rows(f"{1:032x}") == 40
        assert store.metadata(f"{2:032x}") == {"i": 2}
        assert store.rows("f" * 32) is None

    def test_shard_rows_validated(self, tmp_path):
        with pytest.raises(ValidationError):
            ShardStore(tmp_path, shard_rows=0)
        assert ShardStore(tmp_path).shard_rows == DEFAULT_SHARD_ROWS


class TestIntegrity:
    def test_truncated_shard_quarantined_on_get(self, tmp_path):
        with ShardStore(tmp_path, shard_rows=100) as store:
            fill(store, n_entries=2)
        store = ShardStore(tmp_path)
        shard = sorted(tmp_path.glob("shard-*.npy"))[0]
        blob = shard.read_bytes()
        shard.write_bytes(blob[: len(blob) - 16])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(f"{0:032x}") is None
        assert store.corrupt_shards == 1
        assert not shard.exists()
        assert shard.with_name(shard.name + ".corrupt").exists()
        # The other entry lived in the same shard: dropped, not wrong.
        assert store.get(f"{1:032x}") is None

    def test_flipped_payload_byte_fails_verify(self, tmp_path):
        with ShardStore(tmp_path, shard_rows=100) as store:
            fill(store, n_entries=2)
        store = ShardStore(tmp_path)
        shard = sorted(tmp_path.glob("shard-*.npy"))[0]
        with shard.open("r+b") as fh:
            fh.seek(200)
            b = fh.read(1)
            fh.seek(200)
            fh.write(bytes([b[0] ^ 0xFF]))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = store.verify()
        assert not report["ok"]
        assert report["corrupt"] == 1
        assert report["entries_after"] == 0

    def test_flipped_manifest_digest_byte_fails_verify(self, tmp_path):
        """The satellite scenario: the *manifest's* recorded digest is
        tampered with — the shard bytes are fine, but the store can no
        longer prove it, so verify must quarantine, not crash."""
        with ShardStore(tmp_path, shard_rows=100) as store:
            fill(store, n_entries=1)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        (name, spec), = payload["shards"].items()
        digest = spec["digest"]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        payload["shards"][name]["digest"] = flipped
        manifest.write_text(json.dumps(payload))
        store = ShardStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            report = store.verify()
        assert not report["ok"] and report["corrupt"] == 1

    def test_verify_ok_on_healthy_store(self, tmp_path):
        with ShardStore(tmp_path, shard_rows=100) as store:
            fill(store)
        report = ShardStore(tmp_path).verify()
        assert report["ok"] and report["corrupt"] == 0
        assert report["entries"] == report["entries_after"] == 5

    def test_torn_manifest_quarantined_not_crash(self, tmp_path):
        with ShardStore(tmp_path) as store:
            fill(store, n_entries=1)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        with pytest.warns(RuntimeWarning, match="manifest"):
            store = ShardStore(tmp_path)
        assert len(store) == 0
        assert (tmp_path / "manifest.json.corrupt").exists()

    def test_newer_schema_refused_loudly(self, tmp_path):
        with ShardStore(tmp_path) as store:
            fill(store, n_entries=1)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["schema_version"] = STORE_SCHEMA_VERSION + 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="newer than supported"):
            ShardStore(tmp_path)

    @pytest.mark.parametrize("section,key", [
        ("shards", "rows"), ("shards", "sealed"),
        ("entries", "shard"), ("entries", "offset"), ("entries", "rows"),
    ])
    @pytest.mark.parametrize("value", [None, []], ids=["missing", "mistyped"])
    def test_malformed_manifest_field_is_a_named_error(
        self, tmp_path, capsys, section, key, value
    ):
        from repro.cli import main

        with ShardStore(tmp_path) as store:
            fill(store, n_entries=1)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        (name, spec), = payload[section].items()
        if value is None:
            del spec[key]
        else:
            spec[key] = value
        manifest.write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match=f"{name}.*'{key}'"):
            ShardStore(tmp_path)
        assert main(["store", "inspect", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_unsealed_shard_adopted_after_crash(self, tmp_path):
        """A process that dies without seal() leaves an open shard; the
        next open seals it from the manifest's row count."""
        store = ShardStore(tmp_path, shard_rows=1000)
        data = fill(store, n_entries=2)
        # No seal()/close(): simulate the crash by dropping the object.
        del store
        store2 = ShardStore(tmp_path)
        assert all(s["sealed"] for s in store2.shards())
        for fp, values in data.items():
            got, _ = store2.get(fp)
            assert np.array_equal(got, values)
        assert store2.verify()["ok"]

    def test_manifest_has_provenance(self, tmp_path):
        with ShardStore(tmp_path) as store:
            fill(store, n_entries=1)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["provenance"]["methodology"]["store_schema"] == STORE_SCHEMA_VERSION


def chunk_digest(store, fp):
    """BLAKE2b-16 over the entry's values as :meth:`iter_chunks` reads them."""
    h = hashlib.blake2b(digest_size=16)
    for chunk in store.iter_chunks(fp, chunk_rows=7):
        h.update(np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


class TestEntryDigest:
    def test_recorded_digest_is_the_hash_of_the_values(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=100)
        data = fill(store)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for fp in data:
            recorded = manifest["entries"][fp]["digest"]
            assert recorded == chunk_digest(store, fp)
            assert store.entry_digest(fp) == recorded

    def test_digest_survives_reopen_and_compact(self, tmp_path):
        with ShardStore(tmp_path, shard_rows=100) as store:
            data = fill(store)
            before = {fp: store.entry_digest(fp) for fp in data}
        store = ShardStore(tmp_path, shard_rows=100)
        assert {fp: store.entry_digest(fp) for fp in data} == before
        store.remove(sorted(data)[0])
        store.compact()
        store = ShardStore(tmp_path)
        for fp in sorted(data)[1:]:
            assert store.entry_digest(fp) == before[fp] == chunk_digest(store, fp)

    def test_holds_compares_rows_and_digest(self, tmp_path, monkeypatch):
        with ShardStore(tmp_path, shard_rows=100) as store:
            data = fill(store)
        store = ShardStore(tmp_path, shard_rows=100)

        def boom(*args, **kwargs):
            raise AssertionError("holds read value bytes")

        monkeypatch.setattr(ShardStore, "iter_chunks", boom)
        for fp, values in data.items():
            assert store.holds(fp, values)
            assert store.holds(fp, list(values))
            assert not store.holds(fp, values[:-1])
            assert not store.holds(fp, values + 1.0)
        assert not store.holds("f" * 32, next(iter(data.values())))

    def test_recorded_digest_reads_no_values(self, tmp_path, monkeypatch):
        with ShardStore(tmp_path) as store:
            data = fill(store)
        store = ShardStore(tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("entry_digest read value bytes")

        monkeypatch.setattr(ShardStore, "iter_chunks", boom)
        monkeypatch.setattr(np, "memmap", boom)
        assert all(store.entry_digest(fp) for fp in data)

    def test_truncated_shard_quarantined_like_get(self, tmp_path):
        with ShardStore(tmp_path) as store:
            data = fill(store)
        shard = tmp_path / "shard-00000.npy"
        shard.write_bytes(shard.read_bytes()[:-8])
        store = ShardStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.entry_digest(sorted(data)[0]) is None
        assert len(store) == 0
        assert (tmp_path / "shard-00000.npy.corrupt").exists()

    def test_deleted_shard_quarantined(self, tmp_path):
        with ShardStore(tmp_path) as store:
            data = fill(store)
        (tmp_path / "shard-00000.npy").unlink()
        store = ShardStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.entry_digest(sorted(data)[0]) is None
        assert len(store) == 0

    def test_slice_outside_shard_dropped(self, tmp_path):
        with ShardStore(tmp_path) as store:
            data = fill(store)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        victim = sorted(data)[0]
        payload["entries"][victim]["offset"] = 10_000
        manifest.write_text(json.dumps(payload))
        store = ShardStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="inconsistent manifest"):
            assert store.entry_digest(victim) is None
        assert victim not in store
        assert store.entry_digest(sorted(data)[1]) is not None

    def test_unknown_entry_is_none(self, tmp_path):
        assert ShardStore(tmp_path).entry_digest("f" * 32) is None


class TestCompact:
    def test_remove_then_compact_reclaims(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=100)
        data = fill(store)
        removed = sorted(data)[0]
        assert store.remove(removed)
        assert not store.remove(removed)  # already gone
        before = store.stats()
        assert before.live_rows < before.rows
        result = store.compact()
        assert result["bytes_reclaimed"] > 0
        after = store.stats()
        assert after.live_rows == after.rows == before.live_rows
        for fp, values in data.items():
            if fp == removed:
                assert store.get(fp) is None
            else:
                got, md = store.get(fp)
                assert np.array_equal(got, values)
                assert md == {"i": int(fp, 16)}

    def test_compact_empty_store(self, tmp_path):
        store = ShardStore(tmp_path)
        fill(store, n_entries=1)
        store.remove(f"{0:032x}")
        result = store.compact()
        assert result["shards_after"] == 0
        assert len(store) == 0
        # And the store still works after.
        store.append("a" * 32, np.arange(4.0))
        assert store.get("a" * 32) is not None

    def test_compact_survives_reopen(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=100)
        data = fill(store)
        store.remove(sorted(data)[2])
        store.compact()
        store2 = ShardStore(tmp_path)
        assert store2.verify()["ok"]
        assert len(store2) == 4


class TestStats:
    def test_stats_shape(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=100)
        fill(store)
        s = store.stats()
        assert s.entries == 5
        assert s.rows == s.live_rows == 200
        assert s.schema_version == STORE_SCHEMA_VERSION
        assert s.bytes > 200 * 8
        assert s.corrupt_shards == 0
        d = s.as_dict()
        assert d["entries"] == 5 and d["path"] == str(tmp_path)

    def test_shards_view(self, tmp_path):
        store = ShardStore(tmp_path, shard_rows=100)
        fill(store)
        view = store.shards()
        assert [s["file"] for s in view] == sorted(s["file"] for s in view)
        assert sum(s["rows"] for s in view) == 200
        store.seal()
        assert all(s["sealed"] and s["digest"] for s in store.shards())
