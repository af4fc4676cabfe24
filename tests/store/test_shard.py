"""Tests for the fixed-header ``.npy`` shard segments (:mod:`repro.store.shard`)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.store import HEADER_SIZE, ShardWriter, open_shard, payload_digest
from repro.store.shard import digest_rows, read_header_rows


class TestHeader:
    def test_fixed_size_header(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        w.seal()
        assert (tmp_path / "s.npy").stat().st_size == HEADER_SIZE

    def test_roundtrip_rows_via_header(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        w.append(np.arange(7.0))
        w.seal()
        assert read_header_rows(tmp_path / "s.npy") == 7

    def test_unsealed_header_reads_zero_rows(self, tmp_path):
        """Mid-write shards look empty to foreign readers, never torn."""
        w = ShardWriter(tmp_path / "s.npy")
        w.append(np.arange(5.0))
        w.flush()
        assert read_header_rows(tmp_path / "s.npy") == 0
        w.seal()

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "not.npy"
        p.write_bytes(b"x" * 256)
        with pytest.raises(ValidationError):
            read_header_rows(p)

    def test_foreign_dtype_rejected(self, tmp_path):
        p = tmp_path / "int.npy"
        np.save(p, np.arange(4, dtype=np.int32))
        with pytest.raises(ValidationError):
            read_header_rows(p)


class TestShardWriter:
    def test_append_returns_row_offsets(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        assert w.append(np.arange(3.0)) == 0
        assert w.append(np.arange(5.0)) == 3
        assert w.rows == 8
        w.seal()

    def test_refuses_existing_file(self, tmp_path):
        (tmp_path / "s.npy").write_bytes(b"")
        with pytest.raises(ValidationError):
            ShardWriter(tmp_path / "s.npy")

    def test_sealed_shard_refuses_appends(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        w.append(np.arange(2.0))
        w.seal()
        with pytest.raises(ValidationError):
            w.append(np.arange(2.0))

    def test_non_1d_rejected(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        with pytest.raises(ValidationError):
            w.append(np.ones((2, 2)))
        w.abort()

    def test_sealed_shard_loads_with_stock_numpy(self, tmp_path):
        """The whole point of staying inside the .npy envelope."""
        data = np.linspace(-1.0, 1.0, 100)
        w = ShardWriter(tmp_path / "s.npy")
        w.append(data)
        w.seal()
        assert np.array_equal(np.load(tmp_path / "s.npy"), data)
        assert np.array_equal(
            np.load(tmp_path / "s.npy", mmap_mode="r"), data
        )


class TestOpenShard:
    def test_memmap_roundtrip_readonly(self, tmp_path):
        data = np.arange(50.0)
        w = ShardWriter(tmp_path / "s.npy")
        w.append(data)
        w.seal()
        col = open_shard(tmp_path / "s.npy", 50)
        assert np.array_equal(col, data)
        assert not col.flags.writeable

    def test_truncation_detected(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        w.append(np.arange(50.0))
        w.seal()
        blob = (tmp_path / "s.npy").read_bytes()
        (tmp_path / "s.npy").write_bytes(blob[:-8])
        with pytest.raises(ValidationError, match="truncated"):
            open_shard(tmp_path / "s.npy", 50)

    def test_zero_rows_ok(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        w.seal()
        assert open_shard(tmp_path / "s.npy", 0).size == 0


class TestPayloadDigest:
    def test_digest_excludes_header(self, tmp_path):
        """Unsealed and sealed digests agree — a crash between the last
        append and the seal cannot invalidate intact data."""
        data = np.arange(20.0)
        w = ShardWriter(tmp_path / "s.npy")
        w.append(data)
        w.flush()
        before = payload_digest(tmp_path / "s.npy", 20)
        w.seal()
        assert payload_digest(tmp_path / "s.npy") == before

    def test_writer_digest_matches_the_file(self, tmp_path):
        """The file's rows digest to the hash of the values the writer
        was given, block by block (an entry's digest is one block's)."""
        path = tmp_path / "s.npy"
        blocks = [np.arange(7.0), np.arange(40.0)[::3]]  # one non-contiguous
        w = ShardWriter(path)
        offsets = [w.append(block) for block in blocks]
        w.flush()

        def digest(*arrays):
            h = hashlib.blake2b(digest_size=16)
            for a in arrays:
                h.update(np.ascontiguousarray(a))
            return h.hexdigest()

        assert payload_digest(path, 21) == digest(*blocks)
        for offset, block in zip(offsets, blocks):
            assert payload_digest(path, block.size, offset=offset) == digest(block)
        with path.open("rb") as fh:  # every entry from one handle, as verify reads
            assert [
                digest_rows(fh, block.size, offset=offset)
                for offset, block in zip(offsets, blocks)
            ] == [digest(block) for block in blocks]
        w.seal()
        assert payload_digest(path) == digest(*blocks)

    def test_digest_changes_with_payload(self, tmp_path):
        w = ShardWriter(tmp_path / "a.npy")
        w.append(np.arange(20.0))
        w.seal()
        w = ShardWriter(tmp_path / "b.npy")
        w.append(np.arange(20.0) + 1e-12)
        w.seal()
        assert payload_digest(tmp_path / "b.npy") != payload_digest(tmp_path / "a.npy")

    def test_rows_bounded_digest_ignores_tail(self, tmp_path):
        """Digesting exactly N rows ignores torn bytes beyond them."""
        w = ShardWriter(tmp_path / "s.npy")
        w.append(np.arange(10.0))
        w.flush()
        d10 = payload_digest(tmp_path / "s.npy", 10)
        with (tmp_path / "s.npy").open("ab") as fh:
            fh.write(b"\x01" * 5)  # torn final append
        assert payload_digest(tmp_path / "s.npy", 10) == d10
        w.abort()

    def test_missing_payload_bytes_raise(self, tmp_path):
        w = ShardWriter(tmp_path / "s.npy")
        w.append(np.arange(4.0))
        w.seal()
        with pytest.raises(ValidationError, match="truncated"):
            payload_digest(tmp_path / "s.npy", 10)
