"""Benchmark-side tracing: time calls into each layer's public functions.

The program is measured from outside.  :class:`Probes` replaces a public
function or method with a wrapper that opens a span on the program's own
:class:`repro.obs.Tracer` (kept in memory), counts the call, sums its
wall time, and hands the result to an optional hook that adds
layer-specific counts (bytes, hits, builds).  :meth:`Probes.restore` puts
every original back.

Span and counter names are ``<layer>.<operation>``, with the layer named
after its module (``cache``, ``store``, ``registry``, ...).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Probes:
    """Counters and spans around patched functions of one process."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.stats: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.stats[key] += value

    def set(self, key: str, value: float) -> None:
        with self._lock:
            self.stats[key] = value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Callable[["Probes", float, Any, tuple, dict], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span/counter *name*.

        *owner* is a module, a class or an instance; a class attribute
        stays a plain function, so it still binds as a method.
        """
        original = getattr(owner, attr)
        probes = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with probes.tracer.span(name):
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    probes.add(f"{name}.calls")
                    probes.add(f"{name}.s", dt)
            if hook is not None:
                hook(probes, dt, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def export(self) -> dict[str, Any]:
        """Counters, samples and finished spans as plain JSON data."""
        return {
            "stats": dict(self.stats),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": [s.to_dict() for s in self.tracer.finished],
        }


# ---------------------------------------------------------------------------
# Probe sets for the two processes of a repetition
# ---------------------------------------------------------------------------


def install_campaign_probes(probes: Probes, executor) -> None:
    """Probes of the benchmark process: exec, protocol, cache, store,
    campaign, export and stats."""
    import repro.exec.dist as dist
    import repro.exec.engine as engine
    import repro.exec.protocol as protocol
    import repro.report.export as export
    import repro.stats.streaming as streaming
    from repro.core import Campaign, MeasurementSet
    from repro.exec import ResultCache
    from repro.store import ShardStore

    probes.wrap(executor, "run", "exec.run")
    probes.wrap(dist, "encode_frame", "protocol.encode",
                lambda p, dt, out, a, kw: p.add("protocol.bytes", len(out)))
    probes.wrap(protocol, "decode_payload", "protocol.decode",
                lambda p, dt, out, a, kw: p.add("protocol.bytes", len(a[1])))
    probes.wrap(engine, "task_fingerprint", "cache.fingerprint")

    def cache_get(p, dt, out, a, kw):
        if out is not None:
            p.add("cache.hits")
        # Each campaign run opens its own cache; keep each one's total.
        p.set(f"cache.corrupt.{id(a[0])}", a[0].corrupt_entries)

    def store_get(p, dt, out, a, kw):
        if out is not None:
            p.add("store.bytes_read", out[0].nbytes)

    probes.wrap(ResultCache, "get", "cache.get", cache_get)
    probes.wrap(ResultCache, "put", "cache.put",
                lambda p, dt, out, a, kw: p.add("cache.bytes_written",
                                                out.stat().st_size))
    probes.wrap(ShardStore, "append", "store.append",
                lambda p, dt, out, a, kw: p.add("store.bytes_appended",
                                                8 * len(a[2])))
    probes.wrap(ShardStore, "get", "store.get", store_get)
    probes.wrap(Campaign, "record", "campaign.record",
                lambda p, dt, out, a, kw: p.add(
                    "campaign.index_bytes",
                    (a[0].path / "campaign.json").stat().st_size))
    probes.wrap(Campaign, "load", "campaign.load")
    probes.wrap(export, "measurements_to_json", "export.to_json")
    probes.wrap(export, "measurements_from_json", "export.from_json")
    probes.wrap(MeasurementSet, "summary", "stats.summary",
                lambda p, dt, out, a, kw: p.add("stats.values", a[0].n))
    probes.wrap(streaming, "summarize_store", "stats.summarize_store")


def install_serve_probes(probes: Probes) -> None:
    """Probes of the serve process: registry, store digests and requests."""
    import repro.report.registry as registry
    import repro.serve.server as server
    from repro.store import ShardStore

    builds: list[tuple[str, str, float, float]] = []

    def render(p, dt, out, a, kw):
        if out.cached:
            return
        end = time.perf_counter()
        p.add("registry.builds")
        p.add("registry.build_s", dt)
        with p._lock:
            # Artifacts exist once a build finishes, so building a key
            # again (before the cache is cleared) means the two builds
            # overlapped in time.
            if any(name == out.name and key == out.key and s < end and end - dt < e
                   for name, key, s, e in builds):
                p.stats["registry.duplicate_builds"] += 1
            builds.append((out.name, out.key, end - dt, end))

    probes.wrap(registry.FigureService, "render", "registry.render", render)
    probes.wrap(registry.FigureService, "content_key", "registry.content_key")
    probes.wrap(registry, "campaign_digest", "registry.campaign_digest")
    probes.wrap(ShardStore, "entry_digest", "store.digest",
                lambda p, dt, out, a, kw: p.add(
                    "store.digest_bytes", 8 * (a[0].rows(a[1]) or 0)))

    def handle(p, dt, out, a, kw):
        # Called by the server as handle_request(service, method, path, headers).
        path, headers = a[2], a[3] or {}
        p.sample(f"serve.handle_ms.{request_class(path, headers)}", dt * 1e3)
        if out.status >= 400:
            p.add("serve.errors")

    probes.wrap(server, "handle_request", "serve.handle", handle)


def request_class(path: str, headers: dict[str, str]) -> str:
    """The burst class of one request: figure, revalidate, campaign, catalog.

    *headers* has lower-case names, as the server passes them.
    """
    if not path.startswith("/figures/"):
        return "catalog"
    if "campaign_trajectory" in path:
        return "campaign"
    return "revalidate" if "if-none-match" in headers else "figure"


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

#: Spans assembled after the fact (summed task time, no real interval).
LOGICAL_SPANS = frozenset({"design-point"})


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (children on other threads may overlap,
    so the covered part is the union of their intervals).
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent_id"] is not None and s["name"] not in LOGICAL_SPANS:
            children[s["parent_id"]].append(
                (s["start_s"], s["start_s"] + s["wall_s"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["name"] in LOGICAL_SPANS:
            continue
        lo, hi = s["start_s"], s["start_s"] + s["wall_s"]
        covered, edge = 0.0, lo
        for a, b in sorted(children.get(s["span_id"], ())):
            a, b = max(a, edge), min(b, hi)
            if b > a:
                covered += b - a
                edge = b
        out[s["name"]] += max(s["wall_s"] - covered, 0.0)
    return dict(out)
