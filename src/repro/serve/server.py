"""Asyncio HTTP server over the content-addressed figure cache.

Deliberately stdlib-only (``asyncio`` + hand-rolled HTTP/1.1): the
report server ships with the library, not with a web framework.  The
request logic is a pure function — :func:`handle_request` maps
``(method, path, headers)`` to a :class:`Response` against a
:class:`~repro.report.registry.FigureService` — and the asyncio layer
(:class:`FigureServer`) only does socket I/O around it, so unit tests
exercise routing, ETags, and error paths without opening a port.

Caching model: a figure's content key (digest of its inputs) is both the
cache-directory address and the HTTP ``ETag``.  A request for unchanged
data is served from disk (``repro_serve_cache_hits_total``), and a
client replaying the ETag via ``If-None-Match`` gets ``304 Not
Modified`` with no body at all.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ReproError, ValidationError
from ..report.registry import FORMATS

__all__ = ["Response", "handle_request", "FigureServer", "run_server"]

_SERVER_NAME = "repro-serve"
_MAX_REQUEST_BYTES = 16 * 1024

_STATUS_TEXT = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


@dataclass
class Response:
    """One HTTP response: status, headers, body."""

    status: int
    body: bytes = b""
    content_type: str = "application/json; charset=utf-8"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload: Any, *, status: int = 200, **headers: str) -> "Response":
        body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
        return cls(status=status, body=body, headers=headers)

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message, "status": status}, status=status)

    def encode(self, *, head_only: bool = False) -> bytes:
        """The full HTTP/1.1 wire form of this response."""
        reason = _STATUS_TEXT.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Server: {_SERVER_NAME}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8")
        if head_only or self.status == 304:
            return head
        return head + self.body


def _split_figure_path(rest: str) -> tuple[str, str] | None:
    """``"<name>.<fmt>"`` → ``(name, fmt)`` for a format of
    :data:`~repro.report.registry.FORMATS`; None if no format matches.

    The table lists the longer of two overlapping suffixes first, so
    trying them in order never splits one suffix as another.
    """
    for fmt in FORMATS:
        suffix = "." + fmt
        if rest.endswith(suffix) and len(rest) > len(suffix):
            return rest[: -len(suffix)], fmt
    return None


def handle_request(
    service: Any,
    method: str,
    path: str,
    headers: Mapping[str, str] | None = None,
    *,
    metrics: Any = None,
    tracer: Any = None,
) -> Response:
    """Route one request against a figure service; never raises.

    Pure apart from the figure cache it reads/populates: no sockets, no
    asyncio — the unit-testable core of the server.  *headers* keys are
    matched case-insensitively.
    """
    start = time.perf_counter()
    headers = {k.lower(): v for k, v in (headers or {}).items()}
    if tracer is not None:
        with tracer.span("serve-request", method=method, path=path):
            response = _route(service, method, path, headers, metrics)
    else:
        response = _route(service, method, path, headers, metrics)
    if metrics is not None:
        metrics.counter("repro_serve_requests_total").inc()
        if response.status >= 400:
            metrics.counter("repro_serve_errors_total").inc()
        if response.status == 304:
            metrics.counter("repro_serve_not_modified_total").inc()
        metrics.histogram("repro_serve_request_seconds").observe(
            time.perf_counter() - start
        )
    return response


def _route(
    service: Any,
    method: str,
    path: str,
    headers: Mapping[str, str],
    metrics: Any,
) -> Response:
    if method not in ("GET", "HEAD"):
        return Response.error(405, f"method {method} not allowed; use GET")
    path = path.split("?", 1)[0]

    try:
        if path in ("/health", "/health/"):
            return Response.json(
                {"status": "ok", "figures": len(service.names())}
            )
        if path in ("/metrics", "/metrics/"):
            if metrics is None:
                return Response.error(404, "metrics not enabled")
            return Response(
                status=200,
                body=metrics.to_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path in ("/", "/figures", "/figures/"):
            catalog = [service.describe(name) for name in service.names()]
            return Response.json({"figures": catalog})
        if path.startswith("/figures/"):
            split = _split_figure_path(path[len("/figures/"):])
            if split is None:
                return Response.error(
                    404,
                    "figure paths look like /figures/<name>.<fmt> with "
                    f"fmt one of {', '.join(FORMATS)}",
                )
            name, fmt = split
            if name not in service.names():
                return Response.error(
                    404, f"unknown figure {name!r}; see /figures"
                )
            key = service.content_key(name)
            etag = f'"{key}"'
            if headers.get("if-none-match") == etag:
                # Not even a disk read: the key IS the content.
                if metrics is not None:
                    metrics.counter("repro_serve_cache_hits_total").inc()
                return Response(status=304, headers={"ETag": etag})
            body, rendered = service.payload(name, fmt, key=key)
            return Response(
                status=200,
                body=body,
                content_type=FORMATS[fmt].content_type,
                headers={
                    "ETag": f'"{rendered.key}"',
                    "Cache-Control": "no-cache",
                    "X-Repro-Figure": name,
                    "X-Repro-Cached": "1" if rendered.cached else "0",
                },
            )
        return Response.error(404, f"no route {path!r}")
    except ValidationError as exc:
        return Response.error(400, str(exc))
    except ReproError as exc:
        return Response.error(500, str(exc))
    except Exception as exc:  # a figure builder blowing up must not kill the server
        return Response.error(500, f"{type(exc).__name__}: {exc}")


class FigureServer:
    """The asyncio socket layer around :func:`handle_request`.

    ``await start()`` binds the socket (resolving ``port=0`` to the
    chosen ephemeral port); ``await serve_forever()`` blocks.  One
    connection per request (``Connection: close``) keeps the protocol
    trivially correct for a localhost artifact server.
    """

    def __init__(
        self,
        service: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Any = None,
        tracer: Any = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.metrics = metrics
        self.tracer = tracer
        self._server: asyncio.AbstractServer | None = None
        if metrics is not None:
            metrics.bind_serve_metrics()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until :meth:`close`, then return.

        Closing cancels the socket server's own serving future; that
        cancellation ends the serving, not this task, so it is not
        re-raised.  A cancellation of this task still propagates.
        """
        if self._server is None:
            await self.start()
        server = self._server
        assert server is not None
        try:
            async with server:
                await server.serve_forever()
        except asyncio.CancelledError:
            # Task.cancelling() (Python 3.11+) counts cancels of this task.
            cancelling = getattr(asyncio.current_task(), "cancelling", None)
            if self._server is server or (cancelling and cancelling()):
                raise

    async def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            writer.close()
            return
        if len(raw) > _MAX_REQUEST_BYTES:
            writer.write(Response.error(400, "request too large").encode())
            await writer.drain()
            writer.close()
            return
        try:
            head = raw.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, path, _version = request_line.split(" ", 2)
            headers = {}
            for line in header_lines:
                if ":" in line:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
        except ValueError:
            writer.write(Response.error(400, "malformed request").encode())
            await writer.drain()
            writer.close()
            return

        # Renders can take seconds; keep the event loop responsive.
        response = await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: handle_request(
                self.service, method, path, headers,
                metrics=self.metrics, tracer=self.tracer,
            ),
        )
        writer.write(response.encode(head_only=(method == "HEAD")))
        await writer.drain()
        writer.close()


def run_server(
    service: Any,
    *,
    host: str = "127.0.0.1",
    port: int = 8472,
    metrics: Any = None,
    tracer: Any = None,
    ready: Any = None,
) -> None:
    """Blocking entry point: serve *service* until interrupted.

    *ready*, when given, is called with the bound :class:`FigureServer`
    once the socket is listening (the CLI uses it to print the URL; tests
    use it to learn an ephemeral port).
    """

    async def main() -> None:
        server = FigureServer(
            service, host=host, port=port, metrics=metrics, tracer=tracer
        )
        await server.start()
        if ready is not None:
            ready(server)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
