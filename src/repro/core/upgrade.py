"""Bring a campaign or shard store written by an older version forward.

The one reader of older on-disk formats: every other reader accepts only
the current one (:data:`repro.core.campaign.FORMAT`,
:data:`repro.store.STORE_SCHEMA_VERSION`) and raises
:class:`~repro.errors.FormatError`.  In one pass of ``write_atomic``
writes it digests store entries that record none, moves name-only
dataset keys to namespaced ones, splits inline run fields out into
``runs.json``, records the index digests and stamps the format -- last,
so an upgrade cut short is simply run again (docs/STORE.md tabulates the
generations).  A current tree is left alone, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .._atomic import write_atomic
from ..errors import ReproError, ValidationError
from ..report.export import dataset_fingerprint, measurements_from_json, split_run_fields
from ..store.shard import open_shard
from ..store.store import STORE_SCHEMA_VERSION, _values_digest
from .campaign import _INDEX, Campaign, _digest, _read

__all__ = ["upgrade"]


def upgrade(path: str | Path) -> bool:
    """Upgrade the campaign, or bare shard store, at *path* in place
    (a campaign's ``store/`` counts as its campaign); True when anything
    was written."""
    path = Path(path)
    if path.name == "store" and (path.parent / _INDEX).exists():
        path = path.parent
    if (path / _INDEX).exists():
        return _upgrade_campaign(path)
    return _upgrade_store(path, {})


def _upgrade_store(path: Path, moves: dict[str, tuple[str, str]]) -> bool:
    """Upgrade a manifest at schema 1, the only older one: apply *moves*
    (old key -> new key, namespace), digest every entry and stamp the
    schema.  An entry whose shard cannot be read is dropped, as a read
    through the store would quarantine it."""
    manifest = path / "manifest.json"
    if not manifest.exists():
        return False
    try:
        payload = json.loads(manifest.read_bytes())
    except ValueError:
        return False  # torn: the next ShardStore open quarantines it
    if payload.get("schema_version") != 1:
        return False  # current, or not ours to read: ShardStore says which
    entries = payload["entries"]
    for old, (new, namespace) in moves.items():
        if old in entries:
            entry = entries[new] = entries.pop(old)
            entry["metadata"] = {**entry["metadata"], "namespace": namespace}
    rows = {name: spec["rows"] for name, spec in payload["shards"].items()}
    for fp, entry in list(entries.items()):
        if entry.get("digest") is None:
            try:
                column = open_shard(path / entry["shard"], rows[entry["shard"]])
            except (KeyError, ValidationError, OSError):
                del entries[fp]
                continue
            start = entry["offset"]
            entry["digest"] = _values_digest([column[start : start + entry["rows"]]])
    payload["schema_version"] = STORE_SCHEMA_VERSION
    payload["entries"] = {fp: entries[fp] for fp in sorted(entries)}
    write_atomic(manifest, json.dumps(payload))
    return True


def _upgrade_campaign(path: Path) -> bool:
    """Upgrade an unstamped campaign.  A dataset it cannot load (its file
    missing, unparsable or changed after the index recorded its digest,
    or its store entry gone) is carried forward as it is, so that one
    alone fails to load and ``record(overwrite=True)`` repairs it."""
    raw = _read(path / _INDEX)
    payload = json.loads(raw)
    if "format" in payload:
        return False  # stamped: current, or newer for its readers to refuse
    camp = Campaign(path=path, name=payload["name"],
                    environment_fields=payload.get("environment", {}))
    datasets = {d["name"]: d for d in payload.get("datasets", [])}
    files = {}
    for name, d in datasets.items():
        try:
            data = _read(path / d["file"])
        except OSError:
            continue
        digest = _digest(data)
        if d.setdefault("digest", digest) == digest:  # recorded, or now
            try:
                files[name] = json.loads(data)
            except ValueError:
                pass
    moves = {}
    for name, data in files.items():
        stub = data.get("store")
        name_only = hashlib.blake2b(f"dataset:{name}".encode(), digest_size=16)
        if stub is not None and stub["fingerprint"] == name_only.hexdigest():
            new = dataset_fingerprint(name, namespace=camp.dataset_namespace)
            moves[stub["fingerprint"]] = (new, camp.dataset_namespace)
            stub["fingerprint"] = new
    _upgrade_store(path / "store", moves)

    store = camp.store() if camp.has_store() else None
    runs = camp._runs()
    sets = []
    for name, data in files.items():
        try:
            ms = measurements_from_json(json.dumps(data), store=store,
                                        run_fields=runs.get(name))
        except (ReproError, KeyError, TypeError, ValueError):
            continue
        # Each set stays where it was: spilled (at any length) or inline.
        sets.append((ms, 0 if "store" in data else None))
    # Run fields reach runs.json before any dataset file drops them.
    split = {**runs, **{ms.name: fields for ms, _ in sets
                        if (fields := split_run_fields(ms.metadata)[1])}}
    if split != runs:
        camp._write_runs(split)
    # _record reads this index as parsed, each digest recorded.
    entries = sorted(datasets.values(), key=lambda d: d["name"])
    camp._parse(_INDEX, lambda _: entries, raw)
    camp._record(sets, overwrite=True)
    if _read(path / _INDEX) == raw:
        camp._write_index(entries)  # no entry changed: the stamp alone
    return True
