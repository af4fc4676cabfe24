"""Provenance manifests: the complete "how this result was produced".

Rule 1 and the Table 1 survey demand that every reported result carry a
complete description of how it was produced.  A :class:`Provenance`
record is that description as data: the environment (Table 1's nine
categories), exact package versions, the master seed, the methodology
knobs that change measured values, the execution counters, cache
statistics, and the trace identity linking the result to its spans.

Manifests are plain-dict serializable, so they ride inside
:class:`~repro.core.measurement.MeasurementSet` metadata, survive the
JSON round-trips of :mod:`repro.report.export` and the content-addressed
:class:`~repro.exec.ResultCache`, and embed in figure/report exports.
"""

from __future__ import annotations

import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Mapping

from ..errors import ValidationError

__all__ = ["Provenance", "PROVENANCE_VERSION", "package_versions"]

#: Schema version embedded in every serialized manifest.
PROVENANCE_VERSION = 1

_ENV_FIELDS = (
    "processor", "memory", "network", "compiler", "runtime",
    "filesystem", "input", "measurement", "code",
)


def package_versions() -> dict[str, str]:
    """Versions of the interpreter and the numeric stack (best effort)."""
    versions = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    for mod_name in ("numpy", "scipy"):
        mod = sys.modules.get(mod_name)
        if mod is None:
            try:
                mod = __import__(mod_name)
            except ImportError:  # pragma: no cover - all baked into the image
                continue
        versions[mod_name] = str(getattr(mod, "__version__", "unknown"))
    try:
        from .. import __version__ as repro_version

        versions["repro"] = repro_version
    except ImportError:  # pragma: no cover - partial-init edge
        pass
    try:
        from ..simsys.schedules import KERNEL_VERSION

        # RNG stream-consumption layout of the simulated collectives:
        # results produced under different layouts are not comparable
        # sample-for-sample, so manifests must record which one ran.
        versions["simsys_kernel"] = str(KERNEL_VERSION)
    except ImportError:  # pragma: no cover - partial-init edge
        pass
    return versions


def _environment_dict(environment: Any) -> dict[str, Any]:
    """Normalize an EnvironmentSpec (or a plain mapping) to a dict."""
    if environment is None:
        return {}
    if isinstance(environment, Mapping):
        return dict(environment)
    out = {name: getattr(environment, name) for name in _ENV_FIELDS}
    out["extra"] = dict(getattr(environment, "extra", {}))
    return out


@dataclass(frozen=True)
class Provenance:
    """Everything needed to say *how a result was produced*.

    Attributes
    ----------
    created_at:
        ISO-8601 UTC timestamp of manifest creation.
    packages:
        Interpreter/platform/library versions (:func:`package_versions`).
    environment:
        The Table 1 environment description as a plain dict
        (see :class:`~repro.core.environment.EnvironmentSpec`).
    master_seed:
        The campaign's master seed (``None`` for unseeded measurements).
    methodology:
        Whatever knobs change measured values: design description, unit,
        stopping rule, warmup, batching, ...
    exec_stats:
        The :class:`~repro.exec.ExecHooks` counter snapshot.
    cache_stats:
        Result-cache statistics (entries, hits, path).
    trace_id:
        Identity of the span trace this result belongs to, if traced.
    """

    created_at: str
    packages: Mapping[str, str] = field(default_factory=dict)
    environment: Mapping[str, Any] = field(default_factory=dict)
    master_seed: int | None = None
    methodology: Mapping[str, Any] = field(default_factory=dict)
    exec_stats: Mapping[str, Any] = field(default_factory=dict)
    cache_stats: Mapping[str, Any] = field(default_factory=dict)
    trace_id: str | None = None

    @classmethod
    def capture(
        cls,
        *,
        environment: Any | None = None,
        master_seed: int | None = None,
        methodology: Mapping[str, Any] | None = None,
        hooks: Any | None = None,
        cache_stats: Mapping[str, Any] | None = None,
        trace_id: str | None = None,
    ) -> "Provenance":
        """Build a manifest for the current host and run context.

        ``environment`` may be an
        :class:`~repro.core.environment.EnvironmentSpec`, a plain mapping,
        or ``None`` — in which case the host is auto-documented via
        :func:`~repro.core.environment.capture_host`.
        """
        if environment is None:
            # Imported lazily: repro.core imports repro.exec, which imports
            # repro.obs — a module-level import here would be circular.
            from ..core.environment import capture_host

            environment = capture_host()
        exec_stats: Mapping[str, Any] = {}
        if hooks is not None:
            exec_stats = hooks.snapshot() if hasattr(hooks, "snapshot") else dict(hooks)
        return cls(
            created_at=datetime.now(timezone.utc).isoformat(),
            packages=package_versions(),
            environment=_environment_dict(environment),
            master_seed=None if master_seed is None else int(master_seed),
            methodology=dict(methodology or {}),
            exec_stats=dict(exec_stats),
            cache_stats=dict(cache_stats or {}),
            trace_id=trace_id,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": PROVENANCE_VERSION,
            "created_at": self.created_at,
            "packages": dict(self.packages),
            "environment": dict(self.environment),
            "master_seed": self.master_seed,
            "methodology": dict(self.methodology),
            "exec_stats": dict(self.exec_stats),
            "cache_stats": dict(self.cache_stats),
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Provenance":
        if "created_at" not in payload:
            raise ValidationError("provenance manifest missing created_at")
        return cls(
            created_at=str(payload["created_at"]),
            packages=dict(payload.get("packages", {})),
            environment=dict(payload.get("environment", {})),
            master_seed=(
                None if payload.get("master_seed") is None
                else int(payload["master_seed"])
            ),
            methodology=dict(payload.get("methodology", {})),
            exec_stats=dict(payload.get("exec_stats", {})),
            cache_stats=dict(payload.get("cache_stats", {})),
            trace_id=payload.get("trace_id"),
        )

    def describe(self) -> str:
        """One-paragraph human rendering for reports and CLIs."""
        pkg = ", ".join(f"{k} {v}" for k, v in sorted(self.packages.items())
                        if k not in ("platform",))
        lines = [
            f"produced {self.created_at}",
            f"  packages: {pkg or '(unknown)'}",
        ]
        if self.master_seed is not None:
            lines.append(f"  master seed: {self.master_seed}")
        if self.methodology:
            meth = "; ".join(f"{k}={v}" for k, v in sorted(self.methodology.items()))
            lines.append(f"  methodology: {meth}")
        if self.exec_stats:
            ex = ", ".join(f"{k}={v}" for k, v in sorted(self.exec_stats.items()))
            lines.append(f"  execution: {ex}")
        if self.cache_stats:
            ca = ", ".join(f"{k}={v}" for k, v in sorted(self.cache_stats.items()))
            lines.append(f"  cache: {ca}")
        if self.trace_id:
            lines.append(f"  trace: {self.trace_id}")
        return "\n".join(lines)
