"""Rendering for shard-store inspection (:mod:`repro.store`).

Turns a :class:`~repro.store.ShardStore` (and the report dict its
:meth:`~repro.store.ShardStore.verify` returns) into a monospace table
(terminal / CI log) and a markdown document (CI artifact).  The
machine-readable truth is ``manifest.json`` and the verify report; these
renderings carry the same numbers.
"""

from __future__ import annotations

from ..errors import ValidationError
from .document import ReportBuilder
from .table import render_table

__all__ = ["store_table", "store_verify_table", "store_markdown"]


def _require_store(store) -> None:
    if not hasattr(store, "stats") or not hasattr(store, "shards"):
        raise ValidationError(
            f"expected a repro.store.ShardStore, got {type(store).__name__}"
        )


def _fmt_bytes(n: int) -> str:
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{int(size)} B"  # pragma: no cover


def store_table(store) -> str:
    """Monospace shard table, one row per segment (``repro store inspect``)."""
    _require_store(store)
    s = store.stats()
    title = (
        f"Shard store {s.path}: {s.entries} entries, "
        f"{s.live_rows}/{s.rows} live rows in {s.shards} shard(s) "
        f"({_fmt_bytes(s.bytes)}, schema v{s.schema_version})"
    )
    rows = [
        [sh["file"], str(sh["rows"]), "sealed" if sh["sealed"] else "open"]
        for sh in store.shards()
    ]
    if not rows:
        return title + "\n(empty store)"
    return render_table(
        ["shard", "rows", "state"],
        rows,
        aligns=["l", "r", "l"],
        title=title,
    )


def store_verify_table(report) -> str:
    """Monospace verdict table from a :meth:`ShardStore.verify` report."""
    if not isinstance(report, dict) or "shards" not in report:
        raise ValidationError(
            f"expected a ShardStore.verify() report dict, got "
            f"{type(report).__name__}"
        )
    title = (
        f"Store verify: {'OK' if report['ok'] else 'FAILED'} — "
        f"{report['corrupt']} corrupt shard(s), "
        f"{report['entries_after']}/{report['entries']} entries survive"
    )
    rows = [
        [
            "pass" if spec["status"] == "ok" else "FAIL",
            name,
            str(spec["rows"]),
            spec["status"],
        ]
        for name, spec in sorted(report["shards"].items())
    ]
    if not rows:
        return title + "\n(no shards)"
    return render_table(
        ["verdict", "shard", "rows", "detail"],
        rows,
        aligns=["l", "l", "r", "l"],
        title=title,
    )


def store_markdown(store, verify=None) -> str:
    """Full markdown store document (shape + optional verify verdicts)."""
    _require_store(store)
    s = store.stats()
    builder = ReportBuilder(title="Shard store report")
    builder.add_section(
        "Summary",
        "\n".join(
            [
                f"- path: `{s.path}`",
                f"- schema version: {s.schema_version}",
                f"- entries: **{s.entries}** ({s.live_rows} live rows of "
                f"{s.rows} stored)",
                f"- shards: {s.shards} ({s.sealed_shards} sealed), "
                f"{_fmt_bytes(s.bytes)} on disk",
                f"- corrupt shards quarantined this session: "
                f"**{s.corrupt_shards}**",
            ]
        ),
    )
    builder.add_section("Shards", "```\n" + store_table(store) + "\n```")
    if verify is not None:
        builder.add_section(
            "Integrity",
            "```\n" + store_verify_table(verify) + "\n```"
            "\n\nSee docs/STORE.md for the digest and quarantine semantics.",
        )
    return builder.render()
