"""Persistent measurement campaigns: collect now, analyze forever.

LibSciBench's "integrated low-overhead data collection mechanism produces
datasets that can be read directly with established statistical tools";
the reproducibility half of Rule 9 needs those datasets to survive the
session that created them, with their provenance intact.

A :class:`Campaign` is a directory of serialized
:class:`~repro.core.measurement.MeasurementSet` records plus an index with
the environment description.  Typical life cycle::

    camp = Campaign.create(path, name="latency-study", environment=env)
    camp.record(ms)                      # during measurement
    ...
    camp = Campaign.open(path)           # weeks later
    old = camp.load("64B ping-pong")     # identical values, unit, metadata
    camp.compare("64B ping-pong", new_ms)  # did the machine change?

The index (``campaign.json``) records the on-disk ``format``
(:data:`FORMAT`) and lists each dataset's ``name``, ``file``, ``n``,
``unit`` and ``digest``: the BLAKE2b-16 of the bytes written to the
dataset file.  :meth:`Campaign.load` checks a file against it, so a
dataset file edited in place raises :class:`~repro.errors.IntegrityError`
instead of loading silently, and figure content keys come from the index
alone (:func:`repro.report.registry.campaign_digest`).

A dataset file is value-pure: it holds the values and their declaration
(name, unit, design, methodology, packages, environment, seeds), never
what changes from run to run.  Those run fields -- the provenance's
``created_at``, ``exec_stats``, ``cache_stats``, ``trace_id``, the
environment's ``argv`` and the per-dataset ``exec`` counters -- live in
one sibling file, ``runs.json``, and :meth:`Campaign.load` merges them
back in (:func:`repro.report.export.split_run_fields`).  A rerun that
reproduces its values therefore rewrites no dataset file and no index:
only ``runs.json``, so ``campaign_digest`` and every campaign figure key
survive it.

Readers accept the current format only: reading a tree an older version
wrote raises :class:`~repro.errors.FormatError`.  :meth:`Campaign.run`
and :meth:`Campaign.record` first bring such a tree forward with
:func:`repro.core.upgrade.upgrade`, as ``repro store compact`` does.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .._atomic import write_atomic
from ..errors import FormatError, IntegrityError, ValidationError
from ..exec import ExecHooks, Executor, ResultCache
from ..stats.compare import GroupComparison, compare_groups
from .environment import EnvironmentSpec
from .measurement import MeasurementSet

__all__ = ["Campaign", "FORMAT"]

#: The on-disk format ``campaign.json`` records.  Format 2: every index
#: entry records its file digest, dataset files hold no run fields, and
#: the store is at schema 2 (:data:`repro.store.STORE_SCHEMA_VERSION`).
#: An index without a ``format`` field is older.
FORMAT = 2

_INDEX = "campaign.json"
_RUNS = "runs.json"
_MANIFEST = "store/manifest.json"


def _slug(name: str) -> str:
    """Filesystem-safe dataset file name."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_")
    if not slug:
        raise ValidationError(f"dataset name {name!r} has no usable characters")
    return slug


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _datasets(payload: dict, path: Path) -> list[dict]:
    """The dataset entries of a parsed index in the current format."""
    if payload.get("format") != FORMAT:
        raise FormatError(
            f"campaign at {path} has on-disk format {payload.get('format')}, "
            f"not {FORMAT}; if older, run `repro store compact {path}` to "
            "upgrade it"
        )
    return payload["datasets"]


def _read(path: Path) -> bytes:
    # Unbuffered: half the cost of Path.read_bytes for the small index,
    # runs and dataset files every load reads.
    with open(path, "rb", buffering=0) as fh:
        return fh.read()


@dataclass
class Campaign:
    """A directory-backed store of measurement datasets."""

    path: Path
    name: str
    environment_fields: dict = field(default_factory=dict)
    #: Per file under the campaign: the last bytes read or written and
    #: what :meth:`_parse` built from them.
    _parses: dict[str, tuple[bytes, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        name: str,
        environment: EnvironmentSpec | None = None,
    ) -> "Campaign":
        """Create a new campaign directory (must not already hold one)."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        index = path / _INDEX
        if index.exists():
            raise ValidationError(f"{path} already contains a campaign")
        env_fields = {}
        if environment is not None:
            env_fields = {
                **{k: getattr(environment, k) for k in (
                    "processor", "memory", "network", "compiler", "runtime",
                    "filesystem", "input", "measurement", "code",
                )},
                "extra": dict(environment.extra),
            }
        camp = cls(path=path, name=name, environment_fields=env_fields)
        camp._write_index([])
        return camp

    @classmethod
    def open(cls, path: str | Path) -> "Campaign":
        """Open an existing campaign."""
        path = Path(path)
        index = path / _INDEX
        if not index.exists():
            raise ValidationError(f"no campaign at {path}")
        raw = index.read_bytes()
        payload = json.loads(raw)
        camp = cls(
            path=path,
            name=payload["name"],
            environment_fields=payload.get("environment", {}),
        )
        # Only a current index primes the parse, so an older tree opens
        # but _index() refuses it.
        if payload.get("format") == FORMAT:
            camp._parse(_INDEX, lambda _: payload["datasets"], raw)
        return camp

    def _write_index(self, datasets: list[dict]) -> None:
        payload = {
            "format": FORMAT,
            "name": self.name,
            "environment": self.environment_fields,
            "datasets": datasets,
        }
        # Compact: an indent would put json.dumps on its pure-Python
        # encoder, and the index is rewritten on every record.
        text = json.dumps(payload, separators=(",", ":"))
        write_atomic(self.path / _INDEX, text)
        self._parse(_INDEX, lambda _: list(datasets), text.encode())

    def _parse(
        self, file: str, build: Callable[[bytes], Any], raw: bytes | None = None
    ) -> tuple[bytes, Any]:
        """The bytes of *file* (read on every call unless given as *raw*)
        and what *build* makes of them.

        *build* runs only when the bytes differ from the last ones read
        or written for *file*; while they are unchanged its result is
        reused.  A missing file raises :class:`FileNotFoundError`.
        """
        if raw is None:
            raw = _read(self.path / file)
        seen = self._parses.get(file)
        if seen is None or seen[0] != raw:
            seen = self._parses[file] = (raw, build(raw))
        return seen

    def _index(self) -> tuple[bytes, list[dict]]:
        """The index bytes and their dataset entries, as a fresh list
        (of shared entries: callers replace entries, never mutate them).

        Raises :class:`~repro.errors.FormatError` for an index in another
        format.
        """
        raw, datasets = self._parse(
            _INDEX, lambda raw: _datasets(json.loads(raw), self.path)
        )
        return raw, list(datasets)

    def _read_datasets(self) -> list[dict]:
        return self._index()[1]

    def _writable_datasets(self) -> list[dict]:
        """:meth:`_read_datasets`, after upgrading a tree in an older format."""
        try:
            return self._read_datasets()
        except FormatError:
            from .upgrade import upgrade

            upgrade(self.path)
            return self._read_datasets()

    def _runs(self) -> dict[str, dict]:
        """Each dataset's run fields from ``runs.json`` (empty when there
        is none); not to be mutated."""
        from ..report.export import runs_from_json

        try:
            return self._parse(_RUNS, runs_from_json)[1]
        except FileNotFoundError:
            return {}

    def _write_runs(self, runs: dict[str, dict]) -> None:
        # Not cached as parsed: *runs* holds the caller's metadata objects,
        # so the next _runs() parses the bytes instead.
        from ..report.export import runs_to_json

        write_atomic(self.path / _RUNS, runs_to_json(runs))

    # -- data ------------------------------------------------------------

    @property
    def dataset_namespace(self) -> str:
        """Stable spill-key namespace for this campaign's datasets.

        Derived from the campaign name, so re-running the same campaign
        re-addresses the same store entries, while two campaigns spilling
        same-named datasets into one shared store stay distinct (see
        :func:`repro.report.export.dataset_fingerprint`).
        """
        return hashlib.blake2b(
            f"campaign:{self.name}".encode(), digest_size=8
        ).hexdigest()

    def record(
        self,
        ms: MeasurementSet,
        *,
        overwrite: bool = False,
        spill_rows: int | None = None,
    ) -> Path:
        """Persist a dataset under its name; refuses silent overwrites.

        With *spill_rows* set, datasets of at least that many values go
        to the campaign's columnar shard store (:meth:`store`) and the
        JSON file keeps only a stub — :meth:`load` resolves stubs
        transparently, returning lazily memory-mapped values.

        A campaign in an older on-disk format is upgraded first.
        """
        self._record([(ms, spill_rows)], overwrite=overwrite)
        return self.path / f"{_slug(ms.name)}.json"

    def _record(
        self,
        sets: list[tuple[MeasurementSet, int | None]],
        *,
        overwrite: bool,
    ) -> None:
        """Write the dataset files of *sets*, each set paired with its
        *spill_rows* (see :meth:`record`), then ``runs.json`` and the
        index, each only where its bytes change.

        A dataset file is rewritten (atomically) only when its new bytes
        differ from the digest the index records or from the file on
        disk, so recording again repairs a damaged file.  Spilled columns
        go to one store session, sealed before any dataset file names it.
        Also on error, the datasets encoded before it are written and
        listed.
        """
        from ..report import export

        datasets = self._writable_datasets()
        entries = {d["name"]: d for d in datasets}
        files = {d["file"]: d["name"] for d in datasets}
        before_runs = self._runs()
        runs = dict(before_runs)
        changed: list[tuple[str, str]] = []
        namespace = self.dataset_namespace
        spilling = any(rows is not None for _, rows in sets)
        store = self.store() if spilling else None
        try:
            for ms, spill_rows in sets:
                file = f"{_slug(ms.name)}.json"
                if ms.name in entries and not overwrite:
                    raise ValidationError(
                        f"dataset {ms.name!r} already recorded; pass "
                        "overwrite=True to replace it (the old values will "
                        "be lost)"
                    )
                if files.get(file, ms.name) != ms.name:
                    raise ValidationError(
                        f"datasets {ms.name!r} and {files[file]!r} would share "
                        f"the file {file}; rename one of them"
                    )
                pure, run_fields = export.split_run_fields(ms.metadata)
                text = export.measurements_to_json(
                    ms,
                    store=store,
                    spill_rows=spill_rows,
                    namespace=namespace,
                    metadata=pure,
                )
                data = text.encode()
                entry = {"name": ms.name, "file": file, "n": ms.n,
                         "unit": ms.unit, "digest": _digest(data)}
                if entry != entries.get(ms.name) or not self._holds(file, data):
                    changed.append((file, text))
                entries[ms.name] = entry
                files[file] = ms.name
                if run_fields:
                    runs[ms.name] = run_fields
                else:
                    runs.pop(ms.name, None)
        finally:
            if store is not None:
                store.close()
            for file, text in changed:
                write_atomic(self.path / file, text)
            if runs != before_runs:
                self._write_runs(runs)
            if changed:
                new = sorted(entries.values(), key=lambda d: d["name"])
                if new != datasets:
                    self._write_index(new)

    def _holds(self, file: str, data: bytes) -> bool:
        """Does dataset *file* already hold exactly *data*?"""
        try:
            return _read(self.path / file) == data
        except FileNotFoundError:
            return False

    def names(self) -> list[str]:
        """Names of all recorded datasets."""
        return [d["name"] for d in self._read_datasets()]

    def load(self, name: str) -> MeasurementSet:
        """Load a dataset by name, provenance intact.

        Spilled datasets load lazily from the campaign's shard store:
        the values array is a read-only memory map, so loading a
        larger-than-RAM dataset is cheap until its bytes are touched.

        A dataset file whose bytes no longer match the digest the index
        recorded raises :class:`~repro.errors.IntegrityError` naming it.
        """
        from ..report.export import measurements_from_json

        for d in self._read_datasets():
            if d["name"] == name:
                path = self.path / d["file"]
                data = _read(path)
                if _digest(data) != d.get("digest"):
                    raise IntegrityError(
                        f"dataset file {path} does not match the digest "
                        f"recorded for {name!r}: it was changed after it was "
                        "written; record the dataset again with overwrite=True"
                    )
                return measurements_from_json(
                    data.decode(), store=self._store_for_loads(),
                    run_fields=self._runs().get(name),
                )
        raise ValidationError(
            f"no dataset {name!r} in campaign {self.name!r}; have {self.names()}"
        )

    def _store_for_loads(self):
        """The store handle :meth:`load` reads through, or None without a
        store.

        The handle (one manifest parse) is reused while the manifest
        bytes are unchanged.  Writers use their own :meth:`store`.
        """
        try:
            return self._parse(_MANIFEST, lambda _: self.store())[1]
        except FileNotFoundError:
            return None

    def environment(self) -> EnvironmentSpec:
        """The environment description recorded at campaign creation."""
        fields = dict(self.environment_fields)
        extra = fields.pop("extra", {})
        spec = EnvironmentSpec(**fields) if fields else EnvironmentSpec()
        spec.extra.update(extra)
        return spec

    # -- execution --------------------------------------------------------

    def store(self, *, shard_rows: int | None = None):
        """The campaign's columnar shard store (``<campaign>/store/``).

        Created on first use; holds spilled task results and datasets as
        append-only ``.npy`` segments with integrity digests (see
        docs/STORE.md).  Returns a :class:`repro.store.ShardStore`.
        """
        from ..store import ShardStore

        kwargs = {} if shard_rows is None else {"shard_rows": shard_rows}
        return ShardStore(self.path / "store", **kwargs)

    def has_store(self) -> bool:
        """True when this campaign directory has a shard store."""
        # os.path: load asks once per dataset, at half pathlib's cost.
        return os.path.exists(os.path.join(self.path, _MANIFEST))

    def result_cache(self, *, spill_rows: int | None = None) -> ResultCache:
        """The campaign's content-addressed task-result cache.

        Lives under ``<campaign>/cache/`` so re-running a campaign in the
        same directory only measures new or changed design points.  With
        *spill_rows* set, task results of at least that many values spill
        to :meth:`store` and the cache keeps stubs (bounded memory on
        reload; see :class:`repro.exec.ResultCache`).
        """
        if spill_rows is None:
            # Existing spilled entries must stay readable even when the
            # caller did not ask for spilling on this run.
            store = self.store() if self.has_store() else None
            return ResultCache(self.path / "cache", spill_store=store)
        return ResultCache(
            self.path / "cache", spill_store=self.store(), spill_rows=spill_rows
        )

    def run(
        self,
        experiment,
        *,
        executor: Executor | None = None,
        hooks: ExecHooks | None = None,
        tracer=None,
        use_cache: bool = True,
        record: bool = True,
        overwrite: bool = False,
        on_failure: str = "raise",
        spill_rows: int | None = None,
    ):
        """Run *experiment* through the execution engine into this campaign.

        Fans the experiment's tasks out over *executor* (serial by
        default), answering previously measured (workload, point, seed,
        methodology) combinations from :meth:`result_cache` — the
        continuous-benchmarking workflow where a second run of the same
        campaign performs zero new measurements.  With ``record=True``
        every per-point dataset is persisted via :meth:`record`.

        Passing a :class:`repro.obs.Tracer` records a ``campaign`` span
        enclosing the experiment's spans (and, through the engine, the
        per-task ``measurement-batch`` spans).  ``on_failure="annotate"``
        completes the campaign under partial failure, annotating dead
        design points in ``result.envelopes`` instead of raising (see
        :meth:`repro.core.Experiment.run`).

        ``spill_rows`` routes large task results *and* large recorded
        datasets through the campaign's columnar shard store instead of
        inline JSON (see :meth:`store`), keeping memory and file counts
        bounded for out-of-core campaigns.

        A campaign in an older on-disk format is upgraded first.

        Returns the :class:`~repro.core.experiment.ExperimentResult`.
        """
        if _INDEX not in self._parses:
            # Only a current index is ever kept parsed, so one that was
            # not is read (and upgraded) before the cache opens the store.
            self._writable_datasets()
        cache = self.result_cache(spill_rows=spill_rows) if use_cache else None
        span = (
            nullcontext() if tracer is None
            else tracer.span("campaign", label=self.name, experiment=experiment.name)
        )
        try:
            with span:
                result = experiment.run(
                    executor=executor, cache=cache, hooks=hooks, tracer=tracer,
                    on_failure=on_failure,
                )
        finally:
            # Seal the cache's spill shard before the datasets reopen the
            # store: a store left open is adopted by the next reader.
            if cache is not None and cache.spill_store is not None:
                cache.spill_store.close()
        if record:
            self._record([(ms, spill_rows) for ms in result.datasets.values()],
                         overwrite=overwrite)
        return result

    # -- analysis ---------------------------------------------------------

    def compare(self, name: str, new: MeasurementSet) -> GroupComparison:
        """Has this measurement changed since it was recorded?

        Runs :func:`~repro.stats.compare.compare_groups` on the stored
        dataset (group 0) and *new* (group 1): ANOVA and Kruskal–Wallis
        verdicts plus the effect size ``effect_sizes[(0, 1)]``, negative
        when *new* has the larger mean (slower, for times).  This is the
        regression check after e.g. a software upgrade, the Section 4.1.2
        concern about "regular software upgrades on these systems".  Units
        must match.
        """
        old = self.load(name)
        if old.unit != new.unit:
            raise ValidationError(
                f"unit mismatch: stored {old.unit!r}, new {new.unit!r}"
            )
        return compare_groups([old.values, new.values])
