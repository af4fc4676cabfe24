"""The figure HTTP service: routing, ETags, metrics, and the socket layer.

``handle_request`` is a pure function, so most of this file needs no
sockets at all.  The asyncio integration tests drive a real
``FigureServer`` on an ephemeral port with urllib from a worker thread;
the threading-contract tests install a counting executor as the loop's
default to see which requests leave the event loop.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

import repro.report.registry as registry
from repro.core import Campaign, MeasurementSet
from repro.obs import MetricsRegistry, Tracer
from repro.report.registry import FIGURES, FORMATS, FigureEntry, FigureService
from repro.report.vega import VL_SCHEMA
from repro.serve import FigureServer, Response, handle_request

FAST_FIGURE = "fig7ab_bounds"  # cheapest quick-mode build in the registry


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    return FigureService(tmp_path_factory.mktemp("cache"), quick=True, seed=0)


@pytest.fixture()
def metrics():
    return MetricsRegistry()


def _counter(metrics, name):
    return metrics.get(name).value


class TestResponseEncoding:
    def test_encode_carries_status_and_body(self):
        wire = Response.json({"a": 1}).encode()
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close" in head
        assert json.loads(body) == {"a": 1}

    def test_head_only_omits_body_but_keeps_length(self):
        resp = Response.json({"a": 1})
        wire = resp.encode(head_only=True)
        assert wire.endswith(b"\r\n\r\n")
        assert f"Content-Length: {len(resp.body)}".encode() in wire

    def test_304_never_carries_a_body(self):
        resp = Response(status=304, body=b"should not appear")
        assert b"should not appear" not in resp.encode()

    def test_error_payload_is_json(self):
        resp = Response.error(404, "nope")
        assert json.loads(resp.body) == {"error": "nope", "status": 404}


class TestRouting:
    def test_health(self, service):
        resp = handle_request(service, "GET", "/health")
        assert resp.status == 200
        payload = json.loads(resp.body)
        assert payload["status"] == "ok"
        assert payload["figures"] == len(service.names())

    def test_catalog_lists_every_figure(self, service):
        resp = handle_request(service, "GET", "/figures")
        assert resp.status == 200
        catalog = json.loads(resp.body)["figures"]
        assert [c["name"] for c in catalog] == service.names()
        assert all("key" in c and "title" in c for c in catalog)

    def test_root_is_the_catalog_too(self, service):
        assert handle_request(service, "GET", "/").status == 200

    def test_unknown_route_404(self, service):
        resp = handle_request(service, "GET", "/nope")
        assert resp.status == 404

    def test_unknown_figure_404_names_catalog(self, service):
        resp = handle_request(service, "GET", "/figures/nope.json")
        assert resp.status == 404
        assert "see /figures" in json.loads(resp.body)["error"]

    def test_campaign_figure_without_campaign_404(self, service):
        assert "campaign_trajectory" not in service.names()
        resp = handle_request(service, "GET", "/figures/campaign_trajectory.json")
        assert resp.status == 404
        assert "unknown figure 'campaign_trajectory'" in json.loads(resp.body)["error"]
        assert [n for n in sorted(FIGURES) if service.available(n)] == service.names()

    def test_bad_format_404(self, service):
        assert handle_request(service, "GET", "/figures/fig1_hpl.png").status == 404

    def test_bad_format_404_lists_every_format(self, service):
        resp = handle_request(service, "GET", "/figures/fig1_hpl.png")
        message = json.loads(resp.body)["error"]
        assert FORMATS and all(fmt in message for fmt in FORMATS)

    def test_post_is_405(self, service):
        assert handle_request(service, "POST", "/figures").status == 405

    def test_metrics_route_404_without_registry(self, service):
        assert handle_request(service, "GET", "/metrics").status == 404

    def test_metrics_route_serves_prometheus(self, service, metrics):
        resp = handle_request(service, "GET", "/metrics", metrics=metrics)
        assert resp.status == 200
        assert resp.content_type.startswith("text/plain")
        assert b"repro_serve_requests_total" in resp.body


class TestFigureRoutesAndEtags:
    def test_vl_json_served_with_etag(self, service):
        resp = handle_request(service, "GET", f"/figures/{FAST_FIGURE}.vl.json")
        assert resp.status == 200
        assert resp.content_type.startswith("application/json")
        key = service.content_key(FAST_FIGURE)
        assert resp.headers["ETag"] == f'"{key}"'
        assert resp.headers["X-Repro-Figure"] == FAST_FIGURE
        spec = json.loads(resp.body)
        assert spec["$schema"].startswith("https://vega.github.io/schema")

    def test_text_summary_served_as_plain_text(self, service):
        path = "/figures/fig1_hpl.txt"
        resp = handle_request(service, "GET", path)
        assert resp.status == 200
        assert resp.content_type == "text/plain; charset=utf-8"
        etag = f'"{service.content_key("fig1_hpl")}"'
        assert resp.headers["ETag"] == etag
        assert b"Tflop/s" in resp.body
        replay = handle_request(service, "GET", path, {"If-None-Match": etag})
        assert replay.status == 304 and replay.body == b""

    def test_second_request_is_served_from_cache(self, service):
        first = handle_request(service, "GET", f"/figures/{FAST_FIGURE}.html")
        again = handle_request(service, "GET", f"/figures/{FAST_FIGURE}.html")
        assert again.headers["X-Repro-Cached"] == "1"
        assert again.body == first.body

    def test_if_none_match_replays_as_304(self, service, metrics):
        resp = handle_request(service, "GET", f"/figures/{FAST_FIGURE}.vl.json")
        etag = resp.headers["ETag"]
        replay = handle_request(
            service, "GET", f"/figures/{FAST_FIGURE}.vl.json",
            {"If-None-Match": etag}, metrics=metrics,
        )
        assert replay.status == 304
        assert replay.body == b""
        assert replay.headers["ETag"] == etag
        assert _counter(metrics, "repro_serve_cache_hits_total") == 1.0
        assert _counter(metrics, "repro_serve_not_modified_total") == 1.0

    def test_stale_etag_gets_fresh_body(self, service):
        resp = handle_request(
            service, "GET", f"/figures/{FAST_FIGURE}.vl.json",
            {"If-None-Match": '"0" * 32'},
        )
        assert resp.status == 200 and resp.body


class TestMetricsAccounting:
    def test_requests_and_errors_counted(self, service, metrics):
        handle_request(service, "GET", "/health", metrics=metrics)
        handle_request(service, "GET", "/nope", metrics=metrics)
        assert _counter(metrics, "repro_serve_requests_total") == 2.0
        assert _counter(metrics, "repro_serve_errors_total") == 1.0
        assert metrics.get("repro_serve_request_seconds").count == 2

    def test_builder_crash_is_a_500_not_a_raise(self, metrics):
        class Exploding:
            def names(self):
                raise RuntimeError("boom")

        resp = handle_request(Exploding(), "GET", "/health", metrics=metrics)
        assert resp.status == 500
        assert "boom" in json.loads(resp.body)["error"]
        assert _counter(metrics, "repro_serve_errors_total") == 1.0


def _serve_in_thread(server: FigureServer, executor=None):
    """Run *server* on a private event loop in a daemon thread (with
    *executor*, when given, as the loop's default executor)."""
    loop = asyncio.new_event_loop()
    if executor is not None:
        loop.set_default_executor(executor)

    async def up():
        await server.start()

    loop.run_until_complete(up())
    thread = threading.Thread(
        target=loop.run_until_complete, args=(server.serve_forever(),),
        daemon=True,
    )
    thread.start()
    return loop, thread


class TestSocketIntegration:
    @pytest.fixture()
    def live(self, service, metrics):
        server = FigureServer(service, port=0, metrics=metrics)
        loop, thread = _serve_in_thread(server)
        yield server
        # Closing ends serve_forever, which ends the thread's
        # run_until_complete; then the loop can be closed.
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=5)
        thread.join(timeout=5)
        assert not thread.is_alive()
        loop.close()

    def test_health_over_a_real_socket(self, live):
        with urllib.request.urlopen(f"{live.url}/health", timeout=10) as resp:
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"

    def test_figure_fetch_and_304_revalidation(self, live):
        url = f"{live.url}/figures/{FAST_FIGURE}.vl.json"
        with urllib.request.urlopen(url, timeout=60) as resp:
            etag = resp.headers["ETag"]
            assert json.loads(resp.read())["$schema"]
        req = urllib.request.Request(url, headers={"If-None-Match": etag})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 304

    def test_404_over_the_wire(self, live):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{live.url}/figures/nope.json", timeout=10)
        assert exc.value.code == 404

    @pytest.mark.parametrize("pad", [20 * 1024, 70 * 1024])
    def test_oversized_head_gets_a_400(self, live, pad):
        # 70 KiB is past the stream's default 64-KiB read limit: the
        # bound has to hold while the head is read.
        head = b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * pad + b"\r\n\r\n"
        with socket.create_connection(("127.0.0.1", live.port), timeout=10) as conn:
            conn.sendall(head)
            reply = b""
            try:
                while chunk := conn.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                pass  # closed with part of the head unread, after the 400
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"request too large" in reply


# ------------------------------------------------ the threading contract

GATED = "gated_toy"


@dataclass(frozen=True)
class _Toy:
    seed: int


class _GatedBuilder:
    """A figure builder that blocks until released; its first *failures*
    calls raise."""

    def __init__(self, failures: int = 0) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self.failures = failures

    def __call__(self, seed):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30), "builder never released"
        if self.calls <= self.failures:
            raise RuntimeError("builder crashed")
        return _Toy(seed=seed)


class _CountingExecutor(ThreadPoolExecutor):
    """The loop's default executor, counting what is submitted to it."""

    def __init__(self) -> None:
        super().__init__(max_workers=2, thread_name_prefix="build")
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class _MissCountingService(FigureService):
    """Counts cache misses the router sees (lookups off the build threads)."""

    misses = 0

    def lookup(self, name, key):
        found = super().lookup(name, key)
        if found is None and not threading.current_thread().name.startswith("build"):
            self.misses += 1
        return found


def _get(url, headers=None):
    """``(status, headers, body)`` of one GET, error statuses included."""
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.005)


def _in_threads(n, fn):
    """Run *fn* in *n* client threads; returns a join() giving the results."""
    results = [None] * n

    def run(i):
        results[i] = fn()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()

    def join():
        for t in threads:
            t.join(timeout=60)
        return results

    return join


class TestServeThreading:
    @pytest.fixture()
    def builder(self, monkeypatch):
        builder = _GatedBuilder()
        monkeypatch.setitem(registry.FIGURES, GATED, FigureEntry(
            name=GATED, title="gated", description="blocks until released",
            build=builder,
            to_vega=lambda fig: {"$schema": VL_SCHEMA, "mark": "point",
                                 "data": {"values": [{"seed": fig.seed}]}},
            to_text=lambda fig: f"seed {fig.seed}",
        ))
        yield builder
        builder.release.set()  # never leave a build thread blocked

    @pytest.fixture()
    def campaign(self, tmp_path):
        camp = Campaign.create(tmp_path / "camp", name="threading")
        for i in range(2):
            camp.record(MeasurementSet(
                values=np.arange(1.0, 41.0) + i, unit="us", name=f"set-{i}",
            ))
        return camp

    @pytest.fixture()
    def serve(self, tmp_path, campaign):
        """Start a server over a fresh cache; yields a factory."""
        started = []

        def start(**kwargs):
            service = _MissCountingService(
                tmp_path / "cache", campaign=campaign, quick=True, seed=0,
                metrics=kwargs.get("metrics"), tracer=kwargs.get("tracer"),
            )
            executor = _CountingExecutor()
            server = FigureServer(service, port=0, **kwargs)
            loop, thread = _serve_in_thread(server, executor)
            started.append((server, loop, thread, executor))
            return server, executor

        yield start
        for server, loop, thread, executor in started:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=10)
            thread.join(timeout=10)
            assert not thread.is_alive()
            loop.close()
            executor.shutdown(wait=True)

    def test_warm_requests_submit_nothing_to_the_executor(self, serve, metrics):
        server, executor = serve(metrics=metrics)
        for name in (FAST_FIGURE, "campaign_trajectory"):
            assert handle_request(server.service, "GET", f"/figures/{name}.json").status == 200
        base = executor.submitted
        url = server.url
        status, headers, body = _get(f"{url}/figures/{FAST_FIGURE}.vl.json")
        assert status == 200 and headers["X-Repro-Cached"] == "1" and body
        etag = headers["ETag"]
        assert _get(f"{url}/figures/{FAST_FIGURE}.vl.json", {"If-None-Match": etag})[0] == 304
        assert _get(f"{url}/figures")[0] == 200
        status, headers, _ = _get(f"{url}/figures/campaign_trajectory.html")
        assert status == 200 and headers["X-Repro-Cached"] == "1"
        assert _get(f"{url}/health")[0] == 200
        assert _get(f"{url}/figures/nope.json")[0] == 404
        assert _get(f"{url}/metrics")[0] == 200
        assert executor.submitted == base
        assert _counter(metrics, "repro_serve_renders_total") == 2.0  # the warm-ups

    def test_concurrent_cold_requests_share_one_build(self, serve, builder, metrics):
        server, executor = serve(metrics=metrics)
        path = f"{server.url}/figures/{GATED}.vl.json"
        join = _in_threads(3, lambda: _get(path))
        _wait_for(lambda: server.service.misses == 3)
        builder.release.set()
        results = join()
        assert [status for status, _, _ in results] == [200] * 3
        assert len({headers["ETag"] for _, headers, _ in results}) == 1
        assert len({body for _, _, body in results}) == 1
        assert results[0][1]["ETag"] == f'"{server.service.content_key(GATED)}"'
        assert builder.calls == 1 and executor.submitted == 1
        assert _counter(metrics, "repro_serve_renders_total") == 1.0
        assert _get(path)[1]["X-Repro-Cached"] == "1"  # and now it is cached

    def test_health_and_warm_figures_answer_while_a_build_blocks(
        self, serve, builder
    ):
        server, _ = serve()
        handle_request(server.service, "GET", f"/figures/{FAST_FIGURE}.txt")
        join = _in_threads(1, lambda: _get(f"{server.url}/figures/{GATED}.txt"))
        assert builder.started.wait(timeout=30)
        assert _get(f"{server.url}/health")[0] == 200
        status, headers, _ = _get(f"{server.url}/figures/{FAST_FIGURE}.txt")
        assert status == 200 and headers["X-Repro-Cached"] == "1"
        assert not builder.release.is_set()  # both answered mid-build
        builder.release.set()
        assert join()[0][0] == 200

    def test_builder_crash_reaches_every_waiter_and_is_retried(
        self, serve, builder, metrics
    ):
        builder.failures = 1
        server, _ = serve(metrics=metrics)
        path = f"{server.url}/figures/{GATED}.json"
        join = _in_threads(2, lambda: _get(path))
        _wait_for(lambda: server.service.misses == 2)
        builder.release.set()
        for status, _, body in join():
            assert status == 500
            assert "builder crashed" in json.loads(body)["error"]
        assert builder.calls == 1
        assert _counter(metrics, "repro_serve_renders_total") == 0.0
        # Not cached: the next request builds again, and the server serves on.
        status, headers, _ = _get(path)
        assert status == 200 and headers["X-Repro-Cached"] == "0"
        assert builder.calls == 2
        assert _get(f"{server.url}/health")[0] == 200

    def test_spans_of_concurrent_requests_do_not_nest(self, serve, builder):
        tracer = Tracer()
        server, _ = serve(tracer=tracer)
        join = _in_threads(2, lambda: _get(f"{server.url}/figures/{GATED}.html"))
        _wait_for(lambda: server.service.misses == 2)
        assert _get(f"{server.url}/health")[0] == 200
        builder.release.set()
        assert [status for status, _, _ in join()] == [200, 200]
        requests = [s for s in tracer.finished if s.name == "serve-request"]
        renders = [s for s in tracer.finished if s.name == "figure-render"]
        assert len(requests) == 3 and all(s.parent_id is None for s in requests)
        # The one build nests under the request that started it.
        assert len(renders) == 1
        assert renders[0].parent_id in {s.span_id for s in requests}
