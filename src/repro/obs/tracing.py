"""Lightweight distributed tracing for measurement campaigns.

Hunold & Carpen-Amarie ("MPI Benchmarking Revisited") show that the run
context of a benchmark — what executed, when, for how long, nested inside
what — is itself reproducibility data.  This module records that context
as *spans*: named intervals with wall/CPU time, free-form attributes, and
a parent id, emitted around campaign → experiment → design-point →
measurement-batch.

Spans are deliberately minimal (no sampling, no clock sync, no wire
protocol): :meth:`Tracer.span` times every live span, and a finished
span goes to the tracer's sink — kept in memory by default, or one JSON
object per span appended to a JSONL file.  Appends use a single
``os.write`` on an ``O_APPEND`` descriptor, which is atomic for
line-sized payloads on POSIX, so several processes can contribute spans
to the same sink file without locks.  A torn line (crash mid-write) is
skipped by the reader, never an error — the same robustness contract as
the result cache.  Spans raised inside a task attempt
(``measurement-batch``) reach the run's tracer through the attempt's
:class:`~repro.obs.Recording`, whichever process ran it (see
:mod:`repro.obs.recording`).

Typical use::

    tracer = Tracer(sink=JsonlSpanSink(path))
    with tracer.span("campaign", label="latency-study"):
        with tracer.span("experiment", label="pingpong"):
            ...
    print(render_span_tree(read_trace(path)))
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from ..errors import ValidationError

__all__ = [
    "Span",
    "Tracer",
    "JsonlSpanSink",
    "read_trace",
    "render_span_tree",
]


def _new_id() -> str:
    """A 16-hex-digit random id (span and trace identity)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class Span:
    """One finished, named interval of campaign execution.

    Attributes
    ----------
    name:
        What ran: ``campaign`` / ``experiment`` / ``design-point`` /
        ``measurement-batch`` for engine-emitted spans; anything for
        user spans.
    trace_id:
        Groups every span of one campaign run.
    span_id, parent_id:
        Tree structure; ``parent_id`` is ``None`` for roots.
    start_s:
        Wall-clock start (Unix epoch seconds) — for ordering siblings,
        not for duration arithmetic.
    wall_s, cpu_s:
        Duration in wall-clock and CPU seconds.  Logical spans (assembled
        after the fact, e.g. per-design-point aggregates) carry summed
        task wall time and ``cpu_s=0.0``.
    attrs:
        Free-form JSON-able annotations (point, rep, counts, ...).
    pid:
        Emitting process — distinguishes worker contributions.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_s: float
    wall_s: float
    cpu_s: float
    attrs: Mapping[str, Any] = field(default_factory=dict)
    pid: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attrs": dict(self.attrs),
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            start_s=float(payload["start_s"]),
            wall_s=float(payload["wall_s"]),
            cpu_s=float(payload.get("cpu_s", 0.0)),
            attrs=dict(payload.get("attrs", {})),
            pid=int(payload.get("pid", 0)),
        )


class JsonlSpanSink:
    """Append-only JSONL span sink, safe for concurrent writers.

    Every ``emit`` opens the file with ``O_APPEND`` and writes the whole
    line in one ``os.write`` call, so lines from multiple processes
    interleave but never interlace.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), separators=(",", ":")) + "\n"
        fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)


class Tracer:
    """Produces nested spans; thread- and task-safe via a span stack per
    context (each thread, and each asyncio task, has its own).

    Parameters
    ----------
    sink:
        Where finished spans go, and only there; anything with
        ``emit(span)``.  ``None`` keeps spans in memory (see
        :attr:`finished`).
    trace_id:
        Explicit trace identity; generated when omitted.  Pass the parent
        tracer's id to join spans from another process into one trace.
    """

    def __init__(self, sink: Any | None = None, *, trace_id: str | None = None) -> None:
        self.sink = sink
        self._finished: list[Span] = []
        self.trace_id = trace_id or _new_id()
        self._stack: ContextVar[tuple[str, ...]] = ContextVar(
            "repro_span_stack", default=()
        )

    @property
    def finished(self) -> list[Span]:
        """Spans finished by *this* sink-less tracer (in completion order);
        always empty for a tracer with a sink."""
        return self._finished

    @property
    def current_span_id(self) -> str | None:
        """The innermost open span's id (for cross-process propagation)."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def new_span_id(self) -> str:
        """Reserve a span id (e.g. to parent worker spans before emission)."""
        return _new_id()

    def _emit(self, span: Span) -> None:
        if self.sink is None:
            self._finished.append(span)
        else:
            self.sink.emit(span)

    @contextmanager
    def span(
        self, name: str, *, parent_id: str | None = None, span_id: str | None = None,
        **attrs: Any,
    ) -> Iterator[str]:
        """Open a span around a block; yields the span id.

        The parent defaults to the innermost open span of this context
        (thread or asyncio task), so a span held open across an ``await``
        does not parent another task's spans; pass ``parent_id``
        explicitly to attach elsewhere (e.g. under a reserved
        design-point id).
        """
        if not name:
            raise ValidationError("span name must be non-empty")
        sid = span_id or _new_id()
        stack = self._stack.get()
        parent = parent_id if parent_id is not None else (stack[-1] if stack else None)
        token = self._stack.set(stack + (sid,))
        start_wall = time.time()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield sid
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            self._stack.reset(token)
            self._emit(
                Span(
                    name=name,
                    trace_id=self.trace_id,
                    span_id=sid,
                    parent_id=parent,
                    start_s=start_wall,
                    wall_s=wall,
                    cpu_s=cpu,
                    attrs=attrs,
                    pid=os.getpid(),
                )
            )

    def emit_logical(
        self,
        name: str,
        *,
        wall_s: float,
        start_s: float | None = None,
        parent_id: str | None = None,
        span_id: str | None = None,
        cpu_s: float = 0.0,
        **attrs: Any,
    ) -> str:
        """Emit a span assembled after the fact (no live timing).

        Used for aggregate spans whose children ran interleaved across
        workers — e.g. one span per design point carrying the summed task
        wall time.  Returns the span id.
        """
        if not name:
            raise ValidationError("span name must be non-empty")
        sid = span_id or _new_id()
        self._emit(
            Span(
                name=name,
                trace_id=self.trace_id,
                span_id=sid,
                parent_id=parent_id,
                start_s=time.time() if start_s is None else start_s,
                wall_s=float(wall_s),
                cpu_s=float(cpu_s),
                attrs=attrs,
                pid=os.getpid(),
            )
        )
        return sid


def read_trace(path: str | Path) -> list[Span]:
    """Read spans from a JSONL sink file; torn/foreign lines are skipped."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no trace file at {path}")
    spans: list[Span] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue  # torn write or foreign line: skip, never crash
    return spans


def _fmt_attrs(attrs: Mapping[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{inner}]"


def render_span_tree(spans: Sequence[Span]) -> str:
    """Render spans as an indented tree, siblings ordered by start time.

    Spans whose parent is missing from the input (e.g. a worker span whose
    parent line was filtered) are shown as roots rather than dropped.
    """
    if not spans:
        return "(no spans)"
    by_id = {s.span_id: s for s in spans}
    children: dict[str | None, list[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start_s, s.span_id))

    lines: list[str] = []

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        lines.append(
            f"{prefix}{connector}{span.name}  wall={span.wall_s:.4f}s "
            f"cpu={span.cpu_s:.4f}s{_fmt_attrs(span.attrs)}"
        )
        kids = children.get(span.span_id, [])
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    roots = children.get(None, [])
    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1, True)
    return "\n".join(lines)
