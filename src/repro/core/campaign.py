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
"""

from __future__ import annotations

import json
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .._atomic import write_atomic
from ..errors import ValidationError
from ..exec import ExecHooks, Executor, ResultCache
from ..stats.compare import GroupComparison, compare_groups
from .environment import EnvironmentSpec
from .measurement import MeasurementSet

__all__ = ["Campaign"]

_INDEX = "campaign.json"


def _slug(name: str) -> str:
    """Filesystem-safe dataset file name."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_")
    if not slug:
        raise ValidationError(f"dataset name {name!r} has no usable characters")
    return slug


@dataclass
class Campaign:
    """A directory-backed store of measurement datasets."""

    path: Path
    name: str
    environment_fields: dict = field(default_factory=dict)

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
        payload = json.loads(index.read_text())
        return cls(
            path=path,
            name=payload["name"],
            environment_fields=payload.get("environment", {}),
        )

    def _write_index(self, datasets: list[dict]) -> None:
        payload = {
            "name": self.name,
            "environment": self.environment_fields,
            "datasets": datasets,
        }
        write_atomic(self.path / _INDEX, json.dumps(payload, indent=2))

    def _read_datasets(self) -> list[dict]:
        return json.loads((self.path / _INDEX).read_text()).get("datasets", [])

    # -- data ------------------------------------------------------------

    @property
    def dataset_namespace(self) -> str:
        """Stable spill-key namespace for this campaign's datasets.

        Derived from the campaign name, so re-running the same campaign
        re-addresses the same store entries, while two campaigns spilling
        same-named datasets into one shared store stay distinct (see
        :func:`repro.report.export.dataset_fingerprint`).
        """
        import hashlib

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
        """
        datasets = self._upsert(self._read_datasets(), ms, overwrite=overwrite,
                                spill_rows=spill_rows)
        self._write_index(datasets)
        return self.path / f"{_slug(ms.name)}.json"

    def _upsert(
        self,
        datasets: list[dict],
        ms: MeasurementSet,
        *,
        overwrite: bool,
        spill_rows: int | None,
    ) -> list[dict]:
        """Write *ms*'s dataset file; returns the index *datasets* with it
        entered (the caller writes the index)."""
        from ..report.export import measurements_to_json

        target = self.path / f"{_slug(ms.name)}.json"
        existing = [d for d in datasets if d["name"] == ms.name]
        if existing and not overwrite:
            raise ValidationError(
                f"dataset {ms.name!r} already recorded; pass overwrite=True "
                "to replace it (the old values will be lost)"
            )
        # One store (so one shard) per spilled dataset, sealed before the
        # dataset file names it.
        with self.store() if spill_rows is not None else nullcontext() as store:
            text = measurements_to_json(
                ms,
                store=store,
                spill_rows=spill_rows,
                namespace=self.dataset_namespace,
            )
        target.write_text(text)
        datasets = [d for d in datasets if d["name"] != ms.name]
        datasets.append({"name": ms.name, "file": target.name, "n": ms.n,
                         "unit": ms.unit})
        datasets.sort(key=lambda d: d["name"])
        return datasets

    def names(self) -> list[str]:
        """Names of all recorded datasets."""
        return [d["name"] for d in self._read_datasets()]

    def load(self, name: str) -> MeasurementSet:
        """Load a dataset by name, provenance intact.

        Spilled datasets load lazily from the campaign's shard store:
        the values array is a read-only memory map, so loading a
        larger-than-RAM dataset is cheap until its bytes are touched.
        """
        from ..report.export import measurements_from_json

        for d in self._read_datasets():
            if d["name"] == name:
                text = (self.path / d["file"]).read_text()
                store = self.store() if self.has_store() else None
                return measurements_from_json(text, store=store)
        raise ValidationError(
            f"no dataset {name!r} in campaign {self.name!r}; have {self.names()}"
        )

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
        return (self.path / "store" / "manifest.json").exists()

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

        Returns the :class:`~repro.core.experiment.ExperimentResult`.
        """
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
            # One index write per run, not per dataset; also on error, so
            # datasets recorded before it stay listed.
            datasets = before = self._read_datasets()
            try:
                for ms in result.datasets.values():
                    datasets = self._upsert(datasets, ms, overwrite=overwrite,
                                            spill_rows=spill_rows)
            finally:
                if datasets != before:
                    self._write_index(datasets)
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
