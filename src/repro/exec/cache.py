"""Content-addressed on-disk cache of task results.

Vogelsang et al. ("Continuous benchmarking") observe that sustained
benchmarking campaigns only stay affordable when re-execution is
incremental: results that already exist are looked up, not re-measured.

A cache entry is keyed by the BLAKE2 digest of the task's *identity*:

``(workload id, design point, seed id, methodology metadata)``

serialized canonically: sorted keys, numpy scalars normalized to the
equivalent Python scalar (so ``np.int64(4)`` and ``4`` hash identically,
independent of numpy's ``repr`` conventions), then ``repr`` for factor
values so mixed types hash stably.  Anything that would change the
measured values —
a different workload, point, master seed, or methodology knob — changes
the fingerprint and misses; cosmetic changes (executor choice, worker
count, run order) do not appear in the key at all, by design, because the
seeding contract makes them observationally irrelevant.

Entries are one JSON file each under a two-level fan-out directory
(``ab/abcdef....json``), written atomically via rename, so concurrent
campaigns sharing a cache directory at worst duplicate work.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .._atomic import write_atomic
from ..errors import ValidationError

__all__ = ["ResultCache", "task_fingerprint"]


def _normalize_scalar(obj: Any) -> Any:
    """Collapse numpy scalars onto the equivalent Python scalar.

    Fingerprints must be stable across numpy versions and across how a
    value was produced: ``np.int64(4)`` (from ``np.arange``) and ``4``
    measure the same thing, but ``repr(np.int64(4))`` is ``'4'`` on
    numpy 1.x and ``'np.int64(4)'`` on 2.x — falling through to ``repr``
    would both split the cache and break it on upgrade.
    """
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _canonical(obj: Any) -> Any:
    """Make *obj* JSON-serializable with a stable textual form."""
    obj = _normalize_scalar(obj)
    if isinstance(obj, Mapping):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def task_fingerprint(
    workload: str,
    point: Mapping[str, Any],
    seed_id: tuple[int, int],
    methodology: Mapping[str, Any] | None = None,
) -> str:
    """The cache key of one measurement task.

    ``seed_id`` is the ``(master_seed, canonical_index)`` pair from
    :func:`repro.exec.seeding.task_seed_id`; ``methodology`` carries
    whatever knobs change the measured values (stopping rule, warmup,
    replication index, ...).
    """
    payload = {
        "workload": str(workload),
        "point": [
            [k, repr(_normalize_scalar(point[k]))] for k in sorted(point, key=str)
        ],
        "seed": [int(seed_id[0]), int(seed_id[1])],
        "methodology": _canonical(dict(methodology or {})),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


#: Entries at or above this many values spill to the shard store (when
#: one is attached): the JSON encoding of a large sample costs ~20 bytes
#: per value and a full parse per read, while a shard row costs 8 bytes
#: and reads back lazily.
DEFAULT_SPILL_ROWS = 4096


class ResultCache:
    """A directory of content-addressed measurement results.

    Entries are verified on read: a torn, truncated, or hand-edited file
    (e.g. the partial write of a killed worker) is treated as a miss, the
    offending file is quarantined under ``<name>.json.corrupt``, and the
    event is counted in :attr:`corrupt_entries` (surfaced as the
    ``repro_cache_corrupt_total`` metric by the engine).  The campaign
    then simply re-measures — corruption costs work, never correctness.

    With a ``spill_store`` attached (a :class:`repro.store.ShardStore`),
    entries of at least ``spill_rows`` values keep only a stub JSON here
    (``{"spilled": true, "rows": n}``) while the column itself lives in
    the store under the *same* fingerprint and is returned as a read-only
    memory-mapped slice — a cache hit on a spilled entry never
    materializes the sample.  A stub whose store entry has gone missing
    is corruption like any other: quarantined, counted, re-measured.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        spill_store: Any | None = None,
        spill_rows: int = DEFAULT_SPILL_ROWS,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries detected (and quarantined) by this instance.
        self.corrupt_entries = 0
        if spill_rows < 1:
            raise ValidationError(f"spill_rows must be >= 1, got {spill_rows}")
        self.spill_store = spill_store
        self.spill_rows = int(spill_rows)

    def _entry(self, fingerprint: str) -> Path:
        if len(fingerprint) < 8 or not all(c in "0123456789abcdef" for c in fingerprint):
            raise ValidationError(f"malformed cache fingerprint {fingerprint!r}")
        return self.path / fingerprint[:2] / f"{fingerprint}.json"

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupt entry aside so it never poisons another read."""
        self.corrupt_entries += 1
        try:
            entry.replace(entry.with_name(entry.name + ".corrupt"))
        except OSError:
            # A concurrent campaign may have quarantined or rewritten it
            # first; losing the race is fine — the entry is already gone.
            pass

    def get(self, fingerprint: str) -> tuple[np.ndarray, dict[str, Any]] | None:
        """The verified cached ``(values, metadata)`` for *fingerprint*, or None."""
        entry = self._entry(fingerprint)
        if not entry.exists():
            return None
        try:
            payload = json.loads(entry.read_text())
            if not isinstance(payload, Mapping):
                raise ValueError(f"cache entry is {type(payload).__name__}, not an object")
            stored_fp = payload.get("fingerprint")
            if stored_fp != fingerprint:
                # A *missing* fingerprint is as corrupt as a mismatched one:
                # the field is what lets a read prove the entry belongs to
                # this key, so its absence must not be taken on faith.
                raise ValueError(
                    "entry has no fingerprint field"
                    if stored_fp is None
                    else f"entry claims fingerprint {stored_fp!r}"
                )
            metadata = payload.get("metadata", {})
            if not isinstance(metadata, Mapping):
                raise ValueError("entry metadata is not an object")
            metadata = dict(metadata)
            if payload.get("spilled"):
                values = self._get_spilled(payload, fingerprint)
            else:
                values = np.asarray(payload["values"], dtype=np.float64)
            if values.ndim != 1 or values.size == 0:
                raise ValueError(f"entry values have shape {values.shape}")
        except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError):
            self._quarantine(entry)
            return None
        return values, metadata

    def _get_spilled(self, payload: Mapping[str, Any], fingerprint: str) -> np.ndarray:
        """Resolve a spill stub through the shard store (lazy memmap)."""
        if self.spill_store is None:
            raise ValueError("spilled entry but no spill store attached")
        got = self.spill_store.get(fingerprint)
        if got is None:
            raise ValueError("spilled entry missing from the shard store")
        values, _ = got
        rows = int(payload.get("rows", -1))
        if values.size != rows:
            raise ValueError(
                f"spilled entry has {values.size} rows, stub claims {rows}"
            )
        return values

    def put(
        self,
        fingerprint: str,
        values: np.ndarray,
        metadata: Mapping[str, Any] | None = None,
    ) -> Path:
        """Store ``(values, metadata)`` under *fingerprint* atomically.

        Large entries spill to the attached shard store (see class
        docstring); the JSON file then holds only a verifiable stub.  The
        column is written to the store *before* the stub is published, so
        a crash between the two leaves an orphaned column (wasted bytes,
        reclaimed by ``repro store compact``) — never a dangling stub.
        """
        entry = self._entry(fingerprint)
        entry.parent.mkdir(parents=True, exist_ok=True)
        x = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if self.spill_store is not None and x.size >= self.spill_rows:
            if fingerprint not in self.spill_store:
                self.spill_store.append(fingerprint, x)
            payload: dict[str, Any] = {
                "fingerprint": fingerprint,
                "spilled": True,
                "rows": int(x.size),
                "metadata": _canonical(dict(metadata or {})),
            }
        else:
            payload = {
                "fingerprint": fingerprint,
                "values": x.tolist(),
                "metadata": _canonical(dict(metadata or {})),
            }
        return write_atomic(entry, json.dumps(payload))

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry (and quarantined file); returns entries removed."""
        removed = 0
        for entry in self.path.glob("*/*.json"):
            entry.unlink()
            removed += 1
        for corpse in self.path.glob("*/*.json.corrupt"):
            corpse.unlink()
        return removed
