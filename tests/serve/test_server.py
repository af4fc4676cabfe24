"""The figure HTTP service: routing, ETags, metrics, and the socket layer.

``handle_request`` is a pure function, so most of this file needs no
sockets at all.  The asyncio integration tests drive a real
``FigureServer`` on an ephemeral port with urllib from a worker thread.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.report.registry import FORMATS, FigureService
from repro.serve import FigureServer, Response, handle_request

FAST_FIGURE = "fig7ab_bounds"  # cheapest quick-mode build in the registry


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    return FigureService(tmp_path_factory.mktemp("cache"), quick=True, seed=0)


@pytest.fixture()
def metrics():
    reg = MetricsRegistry()
    reg.bind_serve_metrics()
    return reg


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


def _serve_in_thread(server: FigureServer):
    """Run *server* on a private event loop in a daemon thread."""
    loop = asyncio.new_event_loop()

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
