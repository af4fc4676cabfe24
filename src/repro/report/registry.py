"""The figure registry: named generators behind a content-addressed cache.

Every figure the library can produce is one :class:`FigureEntry` in
:data:`FIGURES`.  The entries live in three per-topic modules:
:mod:`~repro.report.paper` (the paper's seven reproduction figures and
Table 1), :mod:`~repro.report.operations` (million-rank collective
scaling, chaos degradation, campaign trajectory) and
:mod:`~repro.report.studies` (the ablation and extension studies).  An
entry declares how to *build* the figure dataclass, how to convert it to
a Vega-Lite spec, and how to summarize it as text; the surrounding
:class:`FigureService` renders each entry to the four artifacts of
:data:`FORMATS` —

* ``<key>.vl.json``  — the Vega-Lite spec (strict JSON),
* ``<key>.json``     — figure data + provenance (:func:`figure_to_json`),
* ``<key>.html``     — a standalone page embedding the spec,
* ``<key>.txt``      — the figure's numbers as a plain-text summary —

where ``<key>`` is the figure's *content key*: a digest of the entry
name/version, its build parameters and seed, the simulation kernel
version, and (for campaign figures) the campaign's on-disk dataset and
shard-store state.  Unchanged inputs ⇒ unchanged key ⇒ the service
serves the cached bytes without rebuilding anything; new data changes
the key, so stale artifacts can never be served as current (Rule 9's
regeneration guarantee, mechanized).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .._atomic import write_atomic
from ..errors import ValidationError
from .export import figure_to_json
from .vega import _html_page, vl_to_json

__all__ = [
    "ArtifactFormat",
    "FORMATS",
    "FigureEntry",
    "FigureService",
    "RenderedFigure",
    "FIGURES",
    "campaign_digest",
    "content_key",
]

# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class FigureEntry:
    """One named figure: how to build it and how to draw it.

    ``build(params)`` returns the figure dataclass; ``to_vega(figure)``
    converts it to a Vega-Lite spec dict and ``to_text(figure)`` to a
    plain-text summary of its numbers.  ``params`` are the
    full-fidelity defaults; ``quick_params`` overlay them for fast
    CI/test renders.  ``needs_campaign`` entries build from recorded
    campaign data instead of fresh simulation, and key on the campaign's
    content (see :func:`campaign_digest`).  Bump ``version`` whenever
    the builder or spec layout changes meaning — it invalidates every
    cached render of this figure.
    """

    name: str
    title: str
    description: str
    build: Callable[..., Any]
    to_vega: Callable[[Any], dict[str, Any]]
    to_text: Callable[[Any], str]
    params: Mapping[str, Any] = field(default_factory=dict)
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    needs_campaign: bool = False
    version: int = 1


# ----------------------------------------------------------- content keys


def campaign_digest(campaign: Any) -> str:
    """A digest of everything a campaign figure can depend on.

    Covers the index, every dataset file (which embeds the value-pure
    provenance and, for spilled sets, the store stub), and the content
    digest of every listed shard-store entry — so appending a dataset,
    overwriting one, or losing a shard changes the digest, while a
    byte-identical campaign always produces the same one.  ``runs.json``
    is not covered: a rerun that reproduces every value keeps the key.  No dataset file or spilled value is
    read: the index records each dataset file's digest at write (checked
    by :meth:`repro.core.Campaign.load`), and the store each entry's at
    append (:meth:`repro.store.ShardStore.entry_digests`, one size check
    per shard).  In-place edits are caught where the bytes are read:
    ``Campaign.load`` for dataset files, ``ShardStore.verify`` for shard
    bit rot.  A campaign in an older on-disk format raises
    :class:`~repro.errors.FormatError`.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(campaign._index()[0])
    # The handle Campaign.load reads through: one manifest parse while the
    # manifest bytes are unchanged, not one per digest.  Asked only when
    # the manifest exists, so a campaign without a store opens no file.
    store = campaign._store_for_loads() if campaign.has_store() else None
    if store is not None:
        for fp, digest in store.entry_digests().items():
            h.update(fp.encode())
            h.update((digest or "quarantined").encode())
    return h.hexdigest()


def content_key(
    entry: FigureEntry,
    *,
    params: Mapping[str, Any],
    seed: int = 0,
    campaign: Any = None,
) -> str:
    """The content address of one render of *entry*.

    Pure function of the figure identity (name, version), its inputs
    (params, seed, campaign content for campaign figures), and the
    simulation kernel version for simulated figures — the RNG layout is
    an input to the numbers, so a kernel bump must invalidate renders.
    """
    from ..simsys.schedules import KERNEL_VERSION

    h = hashlib.blake2b(digest_size=16)
    h.update(f"figure:{entry.name}:v{entry.version}".encode())
    h.update(json.dumps(_canon(params), sort_keys=True).encode())
    if entry.needs_campaign:
        if campaign is None:
            raise ValidationError(
                f"figure {entry.name!r} needs a campaign to key on"
            )
        h.update(campaign_digest(campaign).encode())
    else:
        h.update(f"seed:{seed}".encode())
        h.update(f"kernel:{KERNEL_VERSION}".encode())
    return h.hexdigest()


def _canon(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# -------------------------------------------------------------- service


@dataclass(frozen=True)
class ArtifactFormat:
    """One artifact a render writes: file suffix, HTTP content type, and
    ``write(entry, figure, spec_json)`` returning the artifact's text.

    *spec_json* is the figure's Vega-Lite spec as ``vl_to_json(spec,
    indent=2)`` gives it, serialized once per render for every format.
    """

    suffix: str
    content_type: str
    write: Callable[[FigureEntry, Any, str], str]


_JSON = "application/json; charset=utf-8"

#: Every artifact of a render, by suffix.  ``vl.json`` precedes ``json``
#: so that matching a file name against the suffixes in order finds the
#: longer one first.
FORMATS: dict[str, ArtifactFormat] = {f.suffix: f for f in (
    ArtifactFormat("vl.json", _JSON, lambda e, fig, spec_json: spec_json),
    ArtifactFormat("json", _JSON, lambda e, fig, spec_json: figure_to_json(fig, indent=2)),
    ArtifactFormat("html", "text/html; charset=utf-8",
                   lambda e, fig, spec_json: _html_page(spec_json, e.title)),
    ArtifactFormat("txt", "text/plain; charset=utf-8",
                   lambda e, fig, spec_json: e.to_text(fig) + "\n"),
)}


@dataclass(frozen=True)
class RenderedFigure:
    """One render: where its artifacts live and how it was served."""

    name: str
    key: str
    cached: bool
    directory: Path

    def path(self, fmt: str) -> Path:
        """The artifact path for *fmt*, one of :data:`FORMATS`."""
        if fmt not in FORMATS:
            raise ValidationError(
                f"unknown figure format {fmt!r}; have {list(FORMATS)}"
            )
        return self.directory / f"{self.key}.{fmt}"

    def text(self) -> str:
        """The plain-text summary this render wrote."""
        return self.path("txt").read_text(encoding="utf-8")


class FigureService:
    """Renders registry figures into a content-addressed cache directory.

    The cache layout is ``<dir>/<figure>/<key>.{json,vl.json,html,txt}``
    plus ``<dir>/<figure>/current`` naming the latest key.  A render whose
    key already has every artifact of :data:`FORMATS` is a *cache hit*:
    the builder never runs and the first render's bytes are served as
    written.  Rendering a key again after the cache is wiped writes the
    same ``.vl.json``, ``.html`` and ``.txt`` bytes (every serialization
    here is deterministic), and a ``.json`` whose provenance block
    (``created_at``, ``argv``) is new, under the same key and ETag.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        campaign: Any = None,
        quick: bool = False,
        seed: int = 0,
        metrics: Any = None,
        tracer: Any = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.campaign = campaign
        self.quick = bool(quick)
        self.seed = int(seed)
        self.metrics = metrics
        self.tracer = tracer
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._keys: dict[str, str] = {}

    # -- registry views --------------------------------------------------

    def available(self, name: str) -> bool:
        """Is *name* a figure renderable right now (campaign figures
        need a campaign)?  One lookup: no catalog is built."""
        entry = FIGURES.get(name)
        return entry is not None and (
            self.campaign is not None or not entry.needs_campaign
        )

    def names(self) -> list[str]:
        """The catalog: every :meth:`available` figure, sorted."""
        return [name for name in sorted(FIGURES) if self.available(name)]

    def entry(self, name: str) -> FigureEntry:
        """The registry entry for *name*; ValidationError when unknown."""
        entry = FIGURES.get(name)
        if entry is None:
            raise ValidationError(
                f"unknown figure {name!r}; have {sorted(FIGURES)}"
            )
        return entry

    def params_for(self, entry: FigureEntry) -> dict[str, Any]:
        """Effective build params (quick overrides applied when set)."""
        params = dict(entry.params)
        if self.quick:
            params.update(entry.quick_params)
        return params

    def content_key(self, name: str) -> str:
        """The current content key of *name* (see :func:`content_key`).

        A campaign figure is keyed on every call: its campaign can change
        under a running service.  Any other key is a pure function of the
        entry, params, seed and kernel version, all fixed for the
        service's lifetime, so it is computed once per service.
        """
        key = self._keys.get(name)
        if key is not None:
            return key
        entry = self.entry(name)
        key = content_key(
            entry,
            params=self.params_for(entry),
            seed=self.seed,
            campaign=self.campaign if entry.needs_campaign else None,
        )
        if not entry.needs_campaign:
            # Threads racing on a cold key store the same value.
            self._keys[name] = key
        return key

    def describe(self, name: str) -> dict[str, Any]:
        """The /figures catalog record for one figure."""
        entry = self.entry(name)
        return {
            "name": entry.name,
            "title": entry.title,
            "description": entry.description,
            "version": entry.version,
            "needs_campaign": entry.needs_campaign,
            "key": self.content_key(name),
            "formats": list(FORMATS),
        }

    # -- rendering -------------------------------------------------------

    def lookup(self, name: str, key: str) -> RenderedFigure | None:
        """The render of *name* at content *key* when every artifact of
        :data:`FORMATS` is on disk (a cache hit), else None; never builds."""
        directory = self.cache_dir / name
        # os.path on one string: a third of pathlib's cost per artifact,
        # paid by every warm request.
        base = os.path.join(directory, key)
        if not all(os.path.exists(f"{base}.{fmt}") for fmt in FORMATS):
            return None
        self._count("repro_serve_cache_hits_total")
        return RenderedFigure(name=name, key=key, cached=True, directory=directory)

    def render(self, name: str, *, key: str | None = None) -> RenderedFigure:
        """Render (or serve from cache) every artifact of *name*.

        *key* is the :meth:`content_key` the caller already computed for
        this request (the server keys a figure for its ETag first); it
        saves keying the figure twice.
        """
        entry = self.entry(name)
        if key is None:
            key = self.content_key(name)
        cached = self.lookup(name, key)
        if cached is not None:
            return cached

        with self._span("figure-render", figure=name, key=key):
            params = self.params_for(entry)
            if entry.needs_campaign:
                params["campaign"] = self.campaign
            elif "seed" not in params:
                params["seed"] = self.seed
            with self._span("figure-build", figure=name):
                figure = entry.build(**params)
            spec_json = vl_to_json(entry.to_vega(figure), indent=2)

            rendered = RenderedFigure(
                name=name, key=key, cached=False, directory=self.cache_dir / name,
            )
            rendered.directory.mkdir(parents=True, exist_ok=True)
            for fmt in FORMATS.values():
                write_atomic(rendered.path(fmt.suffix), fmt.write(entry, figure, spec_json))
            write_atomic(rendered.directory / "current", key + "\n")
        self._count("repro_serve_renders_total")
        return rendered

    def _span(self, name: str, **attrs: Any) -> Any:
        """A span of the service's tracer around a block; none without one."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def _count(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric).inc()


# The entries, by topic.  Imported last: each topic module builds its
# entries from FigureEntry above.
from . import operations, paper, studies  # noqa: E402

FIGURES: dict[str, FigureEntry] = {
    e.name: e for module in (paper, operations, studies) for e in module.ENTRIES
}
