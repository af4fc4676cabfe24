"""Dataset export/import: CSV and JSON round-trips.

LibSciBench's "low-overhead data collection mechanism produces datasets
that can be read directly with established statistical tools such as GNU
R"; the Python equivalents are plain CSV (for R/pandas) and JSON (for
provenance-preserving round-trips of :class:`MeasurementSet`).

Encoding and strictness contracts (the web-facing half of Rule 9):

* CSV files are always UTF-8, independent of the host locale — a dataset
  written on a developer laptop must read back in a C-locale CI container
  (and vice versa) without mangling non-ASCII metadata.
* Exported JSON never contains the ``NaN``/``Infinity`` tokens.  Python's
  ``json`` emits them by default, but they are invalid JSON — Vega-Lite,
  browsers' ``JSON.parse``, and most non-Python readers reject the whole
  document.  Non-finite floats are serialized as ``null``
  (:data:`NONFINITE_JSON`), and every ``json.dumps`` in this module runs
  with ``allow_nan=False`` so an unconverted escape fails loudly at
  export time instead of corrupting the artifact.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..core.measurement import MeasurementSet
from ..errors import ValidationError

__all__ = [
    "write_csv",
    "read_csv",
    "dataset_fingerprint",
    "measurements_to_json",
    "measurements_from_json",
    "split_run_fields",
    "merge_run_fields",
    "runs_to_json",
    "runs_from_json",
    "figure_to_json",
    "NONFINITE_JSON",
]

#: What a non-finite float becomes in exported JSON.  ``null`` is the only
#: value every JSON consumer agrees on; readers that need to distinguish
#: "missing" from "infinite" must carry that distinction in metadata.
NONFINITE_JSON = None


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> Path:
    """Write a headers+rows table as UTF-8 CSV; returns the written path."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            if len(row) != len(headers):
                raise ValidationError("row width does not match headers")
            writer.writerow(row)
    return path


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by :func:`write_csv`; returns (headers, rows)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            headers = next(reader)
        except StopIteration:
            raise ValidationError(f"{path} is empty") from None
        rows = [row for row in reader]
    return headers, rows


def dataset_fingerprint(name: str, *, namespace: str | None = None) -> str:
    """The shard-store key of a spilled campaign dataset.

    Task results use :func:`repro.exec.task_fingerprint`; datasets are
    addressed by name, namespaced so the two key families cannot collide.

    *namespace* scopes the key to one producer (a campaign passes its
    :attr:`~repro.core.Campaign.dataset_namespace`), so two campaigns
    spilling same-named datasets into one shared store get distinct
    entries instead of silently clobbering each other through the
    re-record path.  Omitting it yields the legacy name-only key, kept so
    stores written before namespacing stay addressable.
    """
    import hashlib

    scoped = f"dataset:{namespace}:{name}" if namespace else f"dataset:{name}"
    return hashlib.blake2b(scoped.encode(), digest_size=16).hexdigest()


def measurements_to_json(
    ms: MeasurementSet,
    *,
    store: Any = None,
    spill_rows: int | None = None,
    namespace: str | None = None,
    metadata: Mapping[str, Any] | None = None,
) -> str:
    """Serialize a MeasurementSet, preserving all provenance fields.

    *metadata* replaces ``ms.metadata`` in the output: a campaign passes
    the value-pure part :func:`split_run_fields` leaves.

    With *store* (a :class:`repro.store.ShardStore`) given and
    ``ms.n >= spill_rows``, the values column is written to the store
    under :func:`dataset_fingerprint` and the JSON carries only a stub —
    the out-of-core path for campaign datasets too large to re-encode as
    a JSON array.  Reading a stub back requires passing the same store to
    :func:`measurements_from_json`.

    *namespace* scopes the spill key (see :func:`dataset_fingerprint`).
    Re-recording removes the legacy name-only key, migrating
    pre-namespace stores in place, and replaces the namespaced entry
    unless it already holds exactly these values: an unchanged rerun
    appends nothing to the store.
    """
    payload = {
        "name": ms.name,
        "unit": ms.unit,
        "warmup_dropped": ms.warmup_dropped,
        "batch_k": ms.batch_k,
        "deterministic": ms.deterministic,
        "metadata": {
            k: _jsonable(v)
            for k, v in (ms.metadata if metadata is None else metadata).items()
        },
    }
    if store is not None and spill_rows is not None and ms.n >= spill_rows:
        fp = dataset_fingerprint(ms.name, namespace=namespace)
        # Re-recording (overwrite=True): an entry that already holds these
        # exact values stays, so an unchanged rerun appends nothing; any
        # other stale column is unlisted first, its bytes reclaimed by
        # `repro store compact`.
        keep = store.holds(fp, ms.values)
        for stale in {fp, dataset_fingerprint(ms.name)}:
            if stale in store and not (keep and stale == fp):
                store.remove(stale)
        if not keep:
            meta = {"dataset": ms.name}
            if namespace:
                meta["namespace"] = namespace
            store.append(fp, ms.values, meta)
        payload["store"] = {"fingerprint": fp, "rows": ms.n}
    else:
        payload["values"] = ms.values.tolist()
    return json.dumps(payload, allow_nan=False)


def measurements_from_json(
    text: str, *, store: Any = None, run_fields: Mapping[str, Any] | None = None
) -> MeasurementSet:
    """Inverse of :func:`measurements_to_json`.

    *run_fields* (the dataset's entry of a campaign's ``runs.json``) are
    merged back into the metadata (:func:`merge_run_fields`).

    Spilled datasets (a ``"store"`` stub instead of inline ``"values"``)
    load lazily from *store*: the returned set's values are a read-only
    memory-mapped slice.  Loading a stub without its store — or with the
    entry missing/quarantined, or its row count diverging from the stub —
    raises :class:`ValidationError` naming the dataset.
    """
    payload = json.loads(text)
    name = payload.get("name")
    if run_fields:
        payload["metadata"] = merge_run_fields(payload.get("metadata", {}), run_fields)
    try:
        stub = payload.get("store")
        if stub is not None:
            if store is None:
                raise ValidationError(
                    f"dataset {name!r} is spilled to a shard "
                    "store; pass store= to load it"
                )
            try:
                ms = MeasurementSet.from_store(
                    store,
                    str(stub["fingerprint"]),
                    unit=payload["unit"],
                    name=payload["name"],
                    warmup_dropped=payload["warmup_dropped"],
                    batch_k=payload["batch_k"],
                    deterministic=payload["deterministic"],
                    metadata=payload.get("metadata", {}),
                )
            except KeyError:
                raise
            except ValidationError as exc:
                raise ValidationError(
                    f"spilled dataset {name!r} failed to load: {exc}"
                ) from exc
            if ms.n != int(stub["rows"]):
                raise ValidationError(
                    f"spilled dataset {payload['name']!r} has {ms.n} rows, "
                    f"stub claims {stub['rows']}"
                )
            return ms
        return MeasurementSet(
            values=np.asarray(payload["values"], dtype=np.float64),
            unit=payload["unit"],
            name=payload["name"],
            warmup_dropped=payload["warmup_dropped"],
            batch_k=payload["batch_k"],
            deterministic=payload["deterministic"],
            metadata=payload.get("metadata", {}),
        )
    except KeyError as exc:
        raise ValidationError(
            f"dataset {name!r}: missing field in serialized set: {exc}"
        ) from exc


#: Provenance fields that change from run to run of the same values.
_PROVENANCE_RUN_FIELDS = ("created_at", "exec_stats", "cache_stats", "trace_id")


def split_run_fields(
    metadata: Mapping[str, Any],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Split dataset metadata into its value-pure part and its run fields.

    The run fields are what changes when the same values are produced
    again: the provenance's ``created_at``, ``exec_stats``,
    ``cache_stats`` and ``trace_id``, the environment's ``extra.argv``
    (returned as ``argv``), and the per-dataset ``exec`` counters.  What
    stays -- design, methodology, packages, environment, seeds, kernel
    version -- is a function of the values' declaration, so a campaign's
    dataset file of it is byte-identical across value-identical reruns.
    *metadata* is not modified.
    """
    pure = dict(metadata)
    run: dict[str, Any] = {}
    if "exec" in pure:
        run["exec"] = pure.pop("exec")
    prov = pure.get("provenance")
    if isinstance(prov, Mapping):
        prov = pure["provenance"] = dict(prov)
        for key in _PROVENANCE_RUN_FIELDS:
            if key in prov:
                run[key] = prov.pop(key)
        env = prov.get("environment", {})
        if "argv" in env.get("extra", {}):
            extra = dict(env["extra"])
            run["argv"] = extra.pop("argv")
            prov["environment"] = {**env, "extra": extra}
    return pure, run


def merge_run_fields(
    metadata: Mapping[str, Any], run: Mapping[str, Any]
) -> dict[str, Any]:
    """Inverse of :func:`split_run_fields`; copies what it puts back."""
    run = _copy_tree(run)
    md = dict(metadata)
    if "exec" in run:
        md["exec"] = run["exec"]
    prov_fields = {k: run[k] for k in _PROVENANCE_RUN_FIELDS if k in run}
    if prov_fields or "argv" in run:
        prov = md["provenance"] = {**md.get("provenance", {}), **prov_fields}
        if "argv" in run:
            env = prov["environment"] = dict(prov.get("environment", {}))
            env["extra"] = {**env.get("extra", {}), "argv": run["argv"]}
    return md


def runs_to_json(runs: Mapping[str, Mapping[str, Any]]) -> str:
    """Serialize each dataset's run fields (a campaign's ``runs.json``).

    The datasets of one run share its provenance fields, so each distinct
    set is stored once under ``"runs"``; a dataset names its set by
    position and keeps its own ``exec`` counters.
    """
    shared: list[dict[str, Any]] = []
    datasets: dict[str, dict[str, Any]] = {}
    for name in sorted(runs):
        fields = dict(runs[name])
        entry: dict[str, Any] = {}
        if "exec" in fields:
            entry["exec"] = fields.pop("exec")
        if fields:
            try:
                entry["run"] = shared.index(fields)
            except ValueError:
                entry["run"] = len(shared)
                shared.append(fields)
        datasets[name] = entry
    return json.dumps({"runs": shared, "datasets": datasets},
                      separators=(",", ":"), allow_nan=False)


def runs_from_json(text: str | bytes) -> dict[str, dict[str, Any]]:
    """Inverse of :func:`runs_to_json`: dataset name -> its run fields.

    Datasets of one run share their field objects; :func:`merge_run_fields`
    copies them, so loaded sets never alias each other's metadata.
    """
    payload = json.loads(text)
    shared = payload.get("runs", [])
    runs = {}
    for name, entry in payload.get("datasets", {}).items():
        fields = dict(shared[entry["run"]]) if "run" in entry else {}
        if "exec" in entry:
            fields["exec"] = entry["exec"]
        runs[name] = fields
    return runs


def _copy_tree(value: Any) -> Any:
    """A copy of a parsed JSON value that shares no dict or list."""
    if type(value) is dict:
        return {k: _copy_tree(v) for k, v in value.items()}
    if type(value) is list:
        return [_copy_tree(v) for v in value]
    return value


def figure_to_json(figure: Any, *, provenance: Any = None, indent: int | None = None) -> str:
    """Serialize a figure dataclass with an embedded provenance manifest.

    Works for any of the :mod:`repro.report.figures` result objects (or
    any dataclass of JSON-able fields, arrays included).  Every export
    carries a :class:`repro.obs.Provenance` manifest — pass the run's own
    (object or dict) to preserve it, or omit it to capture the exporting
    host (Rule 9: the figure file alone says how it was produced).

    The output is strict JSON: non-finite floats (e.g. an unbounded
    speedup in ``fig7ab_bounds``) become ``null`` rather than the
    ``Infinity``/``NaN`` tokens browsers and Vega-Lite reject.
    """
    if not dataclasses.is_dataclass(figure) or isinstance(figure, type):
        raise ValidationError(
            f"figure_to_json needs a figure dataclass instance, got "
            f"{type(figure).__name__}"
        )
    if provenance is None:
        from ..obs import Provenance  # lazy: keep report importable alone

        provenance = Provenance.capture()
    prov_dict = (
        provenance.to_dict() if hasattr(provenance, "to_dict") else dict(provenance)
    )
    payload = {
        "figure": type(figure).__name__,
        "data": _deep_jsonable(dataclasses.asdict(figure)),
        "provenance": _deep_jsonable(prov_dict),
    }
    return json.dumps(payload, indent=indent, allow_nan=False)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else NONFINITE_JSON
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biu" or (
            value.dtype.kind == "f" and np.isfinite(value).all()
        ):
            # tolist() already yields the Python bools, ints and finite
            # floats the per-element walk would produce.
            return value.tolist()
        return _deep_jsonable(value.tolist())
    return value


def _deep_jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays inside containers."""
    if type(value) is float:
        # The commonest leaf, tested before the slow Mapping ABC check.
        return value if math.isfinite(value) else NONFINITE_JSON
    if isinstance(value, Mapping):
        return {str(k): _deep_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_deep_jsonable(v) for v in value]
    return _jsonable(value)
