"""The columnar shard store: fingerprints → lazily-loaded float64 columns.

A :class:`ShardStore` is a directory of append-only ``.npy`` shard
segments (:mod:`repro.store.shard`) plus one ``manifest.json`` that maps
content-addressed fingerprints (the same BLAKE2 task fingerprints
:class:`repro.exec.ResultCache` uses) to ``(shard, offset, rows)``
triples.  Entries are contiguous within exactly one shard, so reading an
entry back is a single ``memmap`` slice — no copy, no full-shard read.

Integrity extends the cache's quarantine-on-corruption contract
(docs/ROBUSTNESS.md): every read is structurally verified (shard present,
slice inside the recorded row count, file long enough), :meth:`verify`
re-digests every shard against the manifest, and any mismatch moves the
shard aside as ``<name>.corrupt`` and drops its entries — corruption
costs work, never correctness, and never crashes a campaign.  Each entry
also records the digest of its own values at :meth:`append`, so
:meth:`entry_digest` answers without reading them back.

A manifest below :data:`STORE_SCHEMA_VERSION` (entries without a digest,
or name-only dataset keys) is not read here: opening one raises
:class:`~repro.errors.FormatError`, and :mod:`repro.core.upgrade`
(``repro store compact``) brings it forward.

Manifest writes are atomic (tmp + rename) and the store is append-only:
:meth:`remove` only unlists entries; the bytes are reclaimed by
:meth:`compact`, which rewrites surviving entries into fresh shards.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from .._atomic import write_atomic
from ..errors import FormatError, IntegrityError, ValidationError
from .shard import (
    HEADER_SIZE,
    ShardWriter,
    _header_bytes,
    check_size,
    open_shard,
    payload_digest,
)

__all__ = ["ShardStore", "StoreStats", "STORE_SCHEMA_VERSION", "DEFAULT_SHARD_ROWS"]

#: Manifest schema version; readers refuse every other one.  Version 2:
#: every entry records its digest and every dataset key is namespaced.
STORE_SCHEMA_VERSION = 2

#: Rows per shard before rolling to a new segment (8 MB of float64).
DEFAULT_SHARD_ROWS = 1_000_000

#: Default rows per chunk for streaming iteration (4 MB of float64).
DEFAULT_CHUNK_ROWS = 512 * 1024

_MANIFEST = "manifest.json"


def _values_digest(chunks: Iterable[np.ndarray]) -> str:
    """BLAKE2b-16 hex digest of float64 values, fed chunk by chunk."""
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(np.ascontiguousarray(chunk, dtype="<f8"))
    return h.hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's shape, for ``repro store inspect``."""

    path: str
    schema_version: int
    entries: int
    shards: int
    sealed_shards: int
    rows: int
    live_rows: int
    bytes: int
    corrupt_shards: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "schema_version": self.schema_version,
            "entries": self.entries,
            "shards": self.shards,
            "sealed_shards": self.sealed_shards,
            "rows": self.rows,
            "live_rows": self.live_rows,
            "bytes": self.bytes,
            "corrupt_shards": self.corrupt_shards,
        }


def _field(manifest: Path, where: str, spec: Any, key: str, kind: type) -> Any:
    """``spec[key]`` of the manifest's *where* (a shard or an entry), which
    must be a *kind*; :class:`~repro.errors.IntegrityError` naming the
    manifest, *where* and *key* when it is missing or of another type."""
    value = spec.get(key) if isinstance(spec, Mapping) else None
    # bool is an int subclass; a flag is never a row count or an offset.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise IntegrityError(
            f"store manifest {manifest}: {where} has no {kind.__name__} "
            f"{key!r} field (found {value!r})"
        )
    return value


@dataclass
class _Shard:
    file: str
    rows: int = 0
    sealed: bool = False
    digest: str | None = None
    writer: ShardWriter | None = field(default=None, repr=False)


class ShardStore:
    """An append-only columnar store addressed by task fingerprints.

    Parameters
    ----------
    path:
        Store directory (created if missing).
    shard_rows:
        Target rows per shard; an append that would overflow the open
        shard seals it and rolls a new one.  Oversize entries get a
        dedicated shard — an entry never spans segments.
    """

    def __init__(self, path: str | Path, *, shard_rows: int = DEFAULT_SHARD_ROWS) -> None:
        if shard_rows < 1:
            raise ValidationError(f"shard_rows must be >= 1, got {shard_rows}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.shard_rows = int(shard_rows)
        #: Corrupt shards detected (and quarantined) by this instance.
        self.corrupt_shards = 0
        self._shards: dict[str, _Shard] = {}
        self._entries: dict[str, dict[str, Any]] = {}
        self._provenance: dict[str, Any] | None = None
        self._next_shard = 0
        self._open_shard: _Shard | None = None
        self._load_manifest()

    # -- manifest ---------------------------------------------------------

    def _load_manifest(self) -> None:
        manifest = self.path / _MANIFEST
        if not manifest.exists():
            return
        try:
            payload = json.loads(manifest.read_text())
            version = int(payload.get("schema_version", -1))
            if version > STORE_SCHEMA_VERSION:
                raise ValidationError(
                    f"store manifest schema {version} is newer than supported "
                    f"{STORE_SCHEMA_VERSION}; upgrade repro to read {self.path}"
                )
            if version < 0:
                raise ValueError("manifest missing schema_version")
            if version < STORE_SCHEMA_VERSION:
                raise FormatError(
                    f"store manifest schema {version} at {self.path} is older "
                    f"than {STORE_SCHEMA_VERSION}; run `repro store compact "
                    f"{self.path}` to upgrade it"
                )
            shards = payload["shards"]
            entries = payload["entries"]
            if not isinstance(shards, Mapping) or not isinstance(entries, Mapping):
                raise ValueError("manifest shards/entries are not objects")
        except (ValidationError, FormatError):
            raise
        except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError) as exc:
            # A torn manifest orphans the whole directory: quarantine it and
            # start empty rather than crash the campaign that owns the store.
            self.corrupt_shards += 1
            try:
                manifest.replace(manifest.with_name(_MANIFEST + ".corrupt"))
            except OSError:
                pass
            self._warn(f"quarantined unreadable manifest: {exc}")
            return
        for name, spec in shards.items():
            where = f"shard {name}"
            self._shards[str(name)] = _Shard(
                file=str(name),
                rows=_field(manifest, where, spec, "rows", int),
                sealed=_field(manifest, where, spec, "sealed", bool),
                digest=spec.get("digest"),
            )
        for fp, spec in entries.items():
            where = f"entry {fp}"
            self._entries[str(fp)] = {
                "shard": _field(manifest, where, spec, "shard", str),
                "offset": _field(manifest, where, spec, "offset", int),
                "rows": _field(manifest, where, spec, "rows", int),
                "metadata": dict(spec.get("metadata", {})),
                # Every entry of this schema records its digest at append.
                "digest": _field(manifest, where, spec, "digest", str),
            }
        self._provenance = payload.get("provenance")
        indices = [
            int(s.file.split("-")[1].split(".")[0])
            for s in self._shards.values()
            if s.file.startswith("shard-")
        ]
        self._next_shard = max(indices) + 1 if indices else 0
        self._adopt_unsealed()

    def _adopt_unsealed(self) -> None:
        """Seal shards a previous process left open (e.g. after a crash).

        The manifest's row count is the source of truth: bytes beyond it
        are a torn final append and are ignored (the digest covers exactly
        the recorded rows).  A shard shorter than its recorded rows is
        quarantined.
        """
        dirty = False
        for name in list(self._shards):
            shard = self._shards[name]
            if shard.sealed:
                continue
            path = self.path / name
            try:
                digest = payload_digest(path, shard.rows)
                with path.open("r+b") as fh:
                    fh.write(_header_bytes(shard.rows))
            except (ValidationError, OSError) as exc:
                self._quarantine_shard(name, f"unsealed shard unrecoverable: {exc}")
                continue
            shard.sealed = True
            shard.digest = digest
            dirty = True
        if dirty:
            self._write_manifest()

    def _write_manifest(self) -> None:
        if self._provenance is None:
            # Imported lazily; repro.obs must not depend on repro.store.
            from ..obs import Provenance

            self._provenance = Provenance.capture(
                methodology={"store_schema": STORE_SCHEMA_VERSION}
            ).to_dict()
        payload = {
            "schema_version": STORE_SCHEMA_VERSION,
            "shards": {
                name: {"rows": s.rows, "sealed": s.sealed, "digest": s.digest}
                for name, s in sorted(self._shards.items())
            },
            "entries": {
                fp: self._entries[fp] for fp in sorted(self._entries)
            },
            "provenance": self._provenance,
        }
        write_atomic(self.path / _MANIFEST, json.dumps(payload))

    @staticmethod
    def _warn(message: str) -> None:
        import warnings

        warnings.warn(f"repro.store: {message}", RuntimeWarning, stacklevel=3)

    # -- write path -------------------------------------------------------

    def _roll_shard(self) -> _Shard:
        name = f"shard-{self._next_shard:05d}.npy"
        self._next_shard += 1
        shard = _Shard(file=name)
        shard.writer = ShardWriter(self.path / name)
        self._shards[name] = shard
        return shard

    def _seal_shard(self, shard: _Shard) -> None:
        if shard.writer is not None:
            shard.digest = shard.writer.seal()
            shard.writer = None
            shard.sealed = True

    def append(
        self,
        fingerprint: str,
        values: Iterable[float] | np.ndarray,
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        """Append one entry's values under *fingerprint* (atomic manifest).

        Refuses duplicate fingerprints — the store is content-addressed,
        so "same fingerprint" must mean "same bytes"; silently replacing
        would hide a determinism bug upstream.
        """
        if fingerprint in self._entries:
            raise ValidationError(f"store already holds entry {fingerprint!r}")
        x = np.ascontiguousarray(values, dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise ValidationError(f"store entries must be non-empty 1-D, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValidationError("store entries must be finite")
        shard = self._open_shard
        if shard is not None and shard.rows + x.size > self.shard_rows:
            self._seal_shard(shard)
            shard = None
        if shard is None:
            shard = self._roll_shard()
            self._open_shard = shard
        assert shard.writer is not None
        offset = shard.writer.append(x)
        shard.writer.flush()
        shard.rows = shard.writer.rows
        self._entries[fingerprint] = {
            "shard": shard.file,
            "offset": offset,
            "rows": int(x.size),
            "metadata": dict(metadata or {}),
            # An entry that opens its shard is the shard's whole payload.
            "digest": shard.writer.digest() if offset == 0 else _values_digest([x]),
        }
        if shard.rows >= self.shard_rows:
            self._seal_shard(shard)
            self._open_shard = None
        self._write_manifest()

    def seal(self) -> None:
        """Seal the open shard (if any) so every segment carries a digest."""
        if self._open_shard is not None:
            self._seal_shard(self._open_shard)
            self._open_shard = None
            self._write_manifest()

    def close(self) -> None:
        """Seal and release file handles; the store stays readable."""
        self.seal()

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- read path --------------------------------------------------------

    def _quarantine_shard(self, name: str, reason: str) -> None:
        """Move a corrupt shard aside and unlist everything stored in it."""
        self.corrupt_shards += 1
        shard = self._shards.pop(name, None)
        if shard is not None and shard.writer is not None:
            shard.writer.abort()
            if self._open_shard is shard:
                self._open_shard = None
        path = self.path / name
        try:
            path.replace(path.with_name(name + ".corrupt"))
        except OSError:
            pass
        dropped = [fp for fp, e in self._entries.items() if e["shard"] == name]
        for fp in dropped:
            del self._entries[fp]
        self._write_manifest()
        self._warn(f"quarantined shard {name} ({reason}); dropped {len(dropped)} entries")

    def _listed(self, fingerprint: str) -> tuple[dict[str, Any], _Shard] | None:
        """The entry and its shard, or None (dropping an entry whose slice
        lies outside its shard's recorded rows)."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        shard = self._shards.get(entry["shard"])
        if shard is None or entry["offset"] + entry["rows"] > shard.rows:
            self._entries.pop(fingerprint, None)
            self._warn(f"dropped entry {fingerprint} (inconsistent manifest)")
            return None
        return entry, shard

    def get(
        self, fingerprint: str
    ) -> tuple[np.ndarray, dict[str, Any]] | None:
        """The lazily-mapped ``(values, metadata)`` for *fingerprint*, or None.

        Values are a read-only ``memmap`` slice — no bytes are read until
        the caller touches them.  Structural corruption (missing shard,
        truncation, slice outside the shard) quarantines and returns None.
        """
        listed = self._listed(fingerprint)
        if listed is None:
            return None
        entry, shard = listed
        try:
            column = open_shard(self.path / shard.file, shard.rows)
        except (ValidationError, OSError) as exc:
            self._quarantine_shard(shard.file, str(exc))
            return None
        values = column[entry["offset"] : entry["offset"] + entry["rows"]]
        return values, dict(entry["metadata"])

    def iter_chunks(
        self, fingerprint: str, *, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[np.ndarray]:
        """Yield the entry's values in bounded-size read-only chunks."""
        if chunk_rows < 1:
            raise ValidationError(f"chunk_rows must be >= 1, got {chunk_rows}")
        got = self.get(fingerprint)
        if got is None:
            raise KeyError(fingerprint)
        values, _ = got
        for start in range(0, values.size, chunk_rows):
            yield values[start : start + chunk_rows]

    def metadata(self, fingerprint: str) -> dict[str, Any] | None:
        entry = self._entries.get(fingerprint)
        return None if entry is None else dict(entry["metadata"])

    def entry_digest(self, fingerprint: str) -> str | None:
        """BLAKE2b-16 hex digest of one entry's value bytes, or ``None``.

        The per-entry analogue of the shard :func:`payload_digest`:
        content identity for a single column slice, independent of which
        shard holds it or at what offset.  The report registry derives
        figure content keys from these, so a figure's cache entry goes
        stale exactly when the entry is rewritten or its shard is lost.

        The digest :meth:`append` recorded is returned without reading
        the values, after the structural checks :meth:`get` makes (a
        failing one quarantines as ``get`` does and returns ``None``).
        In-place corruption that keeps the file's size is not seen here;
        :meth:`verify` catches it.
        """
        return self.entry_digests([fingerprint])[fingerprint]

    def entry_digests(
        self, fingerprints: Iterable[str] | None = None
    ) -> dict[str, str | None]:
        """:meth:`entry_digest` of each of *fingerprints* (default: every
        listed entry), checking each shard's size once, not once per entry.
        """
        if fingerprints is None:
            fingerprints = self.fingerprints()
        root = str(self.path)
        checked: set[str] = set()
        digests: dict[str, str | None] = {}
        for fp in fingerprints:
            digests[fp] = None
            listed = self._listed(fp)
            if listed is None:
                continue
            entry, shard = listed
            if shard.file not in checked:
                try:
                    check_size(os.path.join(root, shard.file), shard.rows)
                except (ValidationError, OSError) as exc:
                    # Also unlists the shard's other entries: they key as None.
                    self._quarantine_shard(shard.file, str(exc))
                    continue
                checked.add(shard.file)
            digests[fp] = entry["digest"]
        return digests

    def holds(self, fingerprint: str, values: Iterable[float] | np.ndarray) -> bool:
        """Is *fingerprint* listed with exactly *values*?

        Compares the row count and the BLAKE2b-16 digest :meth:`append`
        recorded (see :meth:`entry_digest`) against the digest of
        *values*, so an unchanged re-record can keep the entry instead of
        re-appending identical bytes.
        """
        x = np.ascontiguousarray(values, dtype=np.float64)
        return self.rows(fingerprint) == x.size and self.entry_digest(
            fingerprint
        ) == _values_digest([x])

    def rows(self, fingerprint: str) -> int | None:
        entry = self._entries.get(fingerprint)
        return None if entry is None else int(entry["rows"])

    def fingerprints(self) -> list[str]:
        return sorted(self._entries)

    def shards(self) -> list[dict[str, Any]]:
        """Manifest view of every shard, for inspection and reporting."""
        return [
            {"file": name, "rows": s.rows, "sealed": s.sealed, "digest": s.digest}
            for name, s in sorted(self._shards.items())
        ]

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def remove(self, fingerprint: str) -> bool:
        """Unlist an entry (bytes reclaimed later by :meth:`compact`)."""
        if self._entries.pop(fingerprint, None) is None:
            return False
        self._write_manifest()
        return True

    # -- integrity --------------------------------------------------------

    def verify(self) -> dict[str, Any]:
        """Re-digest every shard against the manifest; quarantine mismatches.

        Returns a report dict (``ok``, per-shard status, counts).  Bounded
        memory: digests stream in 1 MB chunks.  Unsealed shards have no
        recorded digest yet; they are checked structurally only.
        """
        report: dict[str, Any] = {"shards": {}, "entries": len(self._entries)}
        bad: list[str] = []
        for name in sorted(self._shards):
            shard = self._shards[name]
            path = self.path / name
            try:
                if not path.exists():
                    raise ValidationError("missing file")
                if shard.sealed:
                    if shard.digest is None:
                        raise ValidationError("sealed shard lacks a digest")
                    actual = payload_digest(path, shard.rows)
                    if actual != shard.digest:
                        raise ValidationError(
                            f"digest mismatch ({actual} != {shard.digest})"
                        )
                else:
                    expected = HEADER_SIZE + shard.rows * 8
                    if path.stat().st_size < expected:
                        raise ValidationError("truncated unsealed shard")
                report["shards"][name] = {"rows": shard.rows, "status": "ok"}
            except (ValidationError, OSError) as exc:
                report["shards"][name] = {"rows": shard.rows, "status": str(exc)}
                bad.append(name)
        for name in bad:
            self._quarantine_shard(name, str(report["shards"][name]["status"]))
        report["corrupt"] = len(bad)
        report["ok"] = not bad
        report["entries_after"] = len(self._entries)
        return report

    def compact(self) -> dict[str, int]:
        """Rewrite live entries into fresh shards; reclaim removed bytes.

        Returns ``{"bytes_reclaimed": ..., "shards_before": ...,
        "shards_after": ...}``.  Entries are streamed shard-slice by
        shard-slice, never materializing more than one entry.
        """
        self.seal()
        old_shards = dict(self._shards)
        old_entries = dict(self._entries)
        old_bytes = sum(
            HEADER_SIZE + s.rows * 8 for s in old_shards.values()
        )
        self._shards = {}
        self._entries = {}
        self._open_shard = None
        for fp in sorted(old_entries):
            entry = old_entries[fp]
            shard = old_shards.get(entry["shard"])
            if shard is None:
                continue
            try:
                column = open_shard(self.path / entry["shard"], shard.rows)
            except (ValidationError, OSError):
                continue
            values = column[entry["offset"] : entry["offset"] + entry["rows"]]
            self.append(fp, values, entry["metadata"])
        self.seal()
        if not self._entries:
            self._write_manifest()
        new_names = set(self._shards)
        for name in old_shards:
            if name not in new_names:
                try:
                    (self.path / name).unlink()
                except OSError:
                    pass
        new_bytes = sum(HEADER_SIZE + s.rows * 8 for s in self._shards.values())
        return {
            "bytes_reclaimed": max(0, old_bytes - new_bytes),
            "shards_before": len(old_shards),
            "shards_after": len(self._shards),
        }

    def stats(self) -> StoreStats:
        total_bytes = 0
        for name in self._shards:
            try:
                total_bytes += (self.path / name).stat().st_size
            except OSError:
                pass
        return StoreStats(
            path=str(self.path),
            schema_version=STORE_SCHEMA_VERSION,
            entries=len(self._entries),
            shards=len(self._shards),
            sealed_shards=sum(1 for s in self._shards.values() if s.sealed),
            rows=sum(s.rows for s in self._shards.values()),
            live_rows=sum(e["rows"] for e in self._entries.values()),
            bytes=total_bytes,
            corrupt_shards=self.corrupt_shards,
        )
