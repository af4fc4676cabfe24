"""Asyncio HTTP server over the content-addressed figure cache.

Deliberately stdlib-only (``asyncio`` + hand-rolled HTTP/1.1): the
report server ships with the library, not with a web framework.  The
request logic is one router — :func:`handle_request` maps
``(method, path, headers)`` to a :class:`Response` against a
:class:`~repro.report.registry.FigureService` — so unit tests exercise
routing, ETags, and error paths without opening a port.  The asyncio
layer (:class:`FigureServer`) runs the same router on its event loop:
every answer known without a build (health, metrics, errors, the
catalog, a 304, a cached figure) is made there, and only a cache-miss
build goes to a thread, once per content key however many requests
wait for it.

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
from typing import Any, Generator, Mapping, NamedTuple

from ..errors import ReproError, ValidationError
from ..report.registry import FORMATS

__all__ = ["Response", "handle_request", "FigureServer", "run_server"]

_SERVER_NAME = "repro-serve"
_MAX_REQUEST_BYTES = 16 * 1024

#: What the server reads and drops of an oversized request after its 400,
#: at most, before it closes the connection anyway.
_DISCARD_BYTES = 4 * 1024 * 1024
_DISCARD_S = 5.0

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


class _Miss(NamedTuple):
    """A figure whose artifacts are not on disk yet: the one point where
    the router waits for a build."""

    name: str
    key: str


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
    matched case-insensitively.  A figure missing from the cache is
    built on the calling thread; :class:`FigureServer` runs the same
    steps on its event loop and sends only that build to a thread.
    """
    exchange = _exchange(service, method, path, headers, metrics, tracer)
    step = _advance(exchange)
    if isinstance(step, _Miss):
        try:
            outcome = service.render(step.name, key=step.key)
        except Exception as exc:
            outcome = exc
        step = _advance(exchange, outcome)
    return step


def _advance(
    exchange: Generator[_Miss, Any, Response], outcome: Any = None
) -> Response | _Miss:
    """Run *exchange* to its build request or its response, resuming it
    with *outcome* (a render, or the exception its build raised)."""
    try:
        if isinstance(outcome, BaseException):
            return exchange.throw(outcome)
        return exchange.send(outcome)
    except StopIteration as done:
        return done.value


def _exchange(
    service: Any,
    method: str,
    path: str,
    headers: Mapping[str, str] | None,
    metrics: Any,
    tracer: Any,
) -> Generator[_Miss, Any, Response]:
    """One request from start to response, timed, traced and counted;
    yields a :class:`_Miss` when a figure needs a build (see
    :func:`_route`)."""
    start = time.perf_counter()
    headers = {k.lower(): v for k, v in (headers or {}).items()}
    if tracer is not None:
        with tracer.span("serve-request", method=method, path=path):
            response = yield from _route(service, method, path, headers, metrics)
    else:
        response = yield from _route(service, method, path, headers, metrics)
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
) -> Generator[_Miss, Any, Response]:
    """The router.  Everything it answers is known without a build except
    a figure missing from the cache: for that it yields a :class:`_Miss`
    and is resumed with the render, or with the build's exception, which
    maps to an error response like any other."""
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
            if not service.available(name):
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
            rendered = service.lookup(name, key)
            if rendered is None:
                rendered = yield _Miss(name, key)
            return Response(
                status=200,
                body=rendered.path(fmt).read_bytes(),
                content_type=FORMATS[fmt].content_type,
                headers={
                    "ETag": etag,
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
    """The asyncio socket layer around :func:`handle_request`'s router.

    ``await start()`` binds the socket (resolving ``port=0`` to the
    chosen ephemeral port); ``await serve_forever()`` blocks.  One
    connection per request (``Connection: close``) keeps the protocol
    trivially correct for a localhost artifact server.  Builds run in
    the loop's default executor; everything else runs on the loop.
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
        #: Builds in flight, by content key.
        self._builds: dict[str, asyncio.Future] = {}

    async def start(self) -> None:
        # The stream refuses a head longer than the limit while reading it.
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=_MAX_REQUEST_BYTES
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

    async def _respond(
        self, method: str, path: str, headers: Mapping[str, str]
    ) -> Response:
        """:func:`handle_request`'s steps on the event loop.

        A request whose answer is known — health, metrics, errors, the
        catalog, a 304, a cached figure — is answered here without
        leaving the loop; only a cache miss waits, on the loop, for a
        build in a thread (:meth:`_build`).
        """
        exchange = _exchange(
            self.service, method, path, headers, self.metrics, self.tracer
        )
        try:
            step = _advance(exchange)
            if isinstance(step, _Miss):
                try:
                    # Shielded: a waiter cancelled mid-build does not
                    # cancel the build other waiters share.
                    outcome = await asyncio.shield(self._build(step))
                except Exception as exc:
                    outcome = exc
                step = _advance(exchange, outcome)
            return step
        finally:
            # A cancelled exchange closes its span in this task's context.
            exchange.close()

    def _build(self, miss: _Miss) -> asyncio.Future:
        """The build of *miss* in flight in the loop's default executor,
        started if there is none: concurrent misses of one content key
        share one build.  It is forgotten once settled, so a failed
        build is retried by the next request and a finished one is a
        cache hit."""
        build = self._builds.get(miss.key)
        if build is None:
            build = asyncio.ensure_future(
                asyncio.to_thread(self.service.render, miss.name, key=miss.key)
            )
            self._builds[miss.key] = build
            build.add_done_callback(lambda _: self._builds.pop(miss.key, None))
        return build

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            writer.close()
            return
        except asyncio.LimitOverrunError:
            writer.write(Response.error(400, "request too large").encode())
            await writer.drain()
            await self._discard_then_close(reader, writer)
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

        response = await self._respond(method, path, headers)
        writer.write(response.encode(head_only=(method == "HEAD")))
        await writer.drain()
        writer.close()

    @staticmethod
    async def _discard_then_close(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close after a reply sent before the request was read, and
        drop what the client still sends before closing.

        Closing a socket with unread bytes makes the kernel send a reset,
        which can destroy the reply before the client reads it.  The
        client gets the reply and EOF at once; the rest of its request is
        read until it stops sending, or until :data:`_DISCARD_BYTES` or
        :data:`_DISCARD_S` run out.
        """

        async def discard() -> None:
            left = _DISCARD_BYTES
            while left > 0 and (chunk := await reader.read(min(left, 1 << 16))):
                left -= len(chunk)

        try:
            writer.write_eof()
            await asyncio.wait_for(discard(), _DISCARD_S)
        except (asyncio.TimeoutError, ConnectionError):
            pass
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
