"""The HTTP observability endpoint: scrape shapes, probes, error paths."""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.fleet.metrics import MetricsRegistry
from repro.gateway import http
from repro.gateway.http import MetricsHttpServer


async def _request(port: int, raw: bytes) -> tuple[str, dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        headers[key.lower()] = value
    return lines[0], headers, body


def _with_server(registry, coro_fn, **kwargs):
    async def runner():
        server = MetricsHttpServer(registry, **kwargs)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


class TestMetricsRoute:
    def test_scrape_is_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("gateway.frames_received").inc(42)
        registry.gauge("gateway.connections_open").set(3)
        registry.histogram("session.v00.latency_s").observe(0.01)

        async def scrape(server):
            return await _request(
                server.port, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
            )

        status, headers, body = _with_server(registry, scrape)
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert int(headers["content-length"]) == len(body)
        text = body.decode()
        assert "repro_gateway_frames_received_total 42" in text
        assert "repro_gateway_connections_open 3" in text
        assert 'repro_session_latency_s{session="v00",quantile="0.5"}' in text

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc")
    def test_scrape_reports_this_process_memory(self):
        async def scrape(server):
            return await _request(server.port, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")

        _, _, body = _with_server(MetricsRegistry(), scrape)
        status = dict(
            line.split(":", 1) for line in Path("/proc/self/status").read_text().splitlines()
        )
        text = body.decode()
        series = dict(line.rsplit(" ", 1) for line in text.splitlines() if line[0] != "#")
        assert "# TYPE repro_process_rss_bytes gauge" in text
        assert "# TYPE repro_process_peak_rss_bytes gauge" in text
        rss = int(series["repro_process_rss_bytes"])
        peak = int(series["repro_process_peak_rss_bytes"])
        assert 0 < rss <= peak
        # The server runs in this process: its gauges read our own status.
        assert abs(rss - int(status["VmRSS"].split()[0]) * 1024) < 5 * 2**20
        assert peak <= int(status["VmHWM"].split()[0]) * 1024

    def test_no_process_memory_series_without_proc(self, monkeypatch, tmp_path):
        monkeypatch.setattr(http, "_PROC_STATUS", str(tmp_path / "missing"))

        async def scrape(server):
            return await _request(server.port, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")

        _, _, body = _with_server(MetricsRegistry(), scrape)
        assert "repro_process" not in body.decode()

    def test_health_route_reports_payload(self):
        async def probe(server):
            return await _request(server.port, b"GET /healthz HTTP/1.0\r\n\r\n")

        status, _, body = _with_server(
            MetricsRegistry(), probe, health=lambda: {"status": "ok", "sessions": {}}
        )
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body) == {"sessions": {}, "status": "ok"}

    def test_ready_route_flips_with_callable(self):
        ready = {"value": True}

        async def probe_both(server):
            up = await _request(server.port, b"GET /ready HTTP/1.1\r\nHost: t\r\n\r\n")
            ready["value"] = False
            down = await _request(server.port, b"GET /ready HTTP/1.1\r\nHost: t\r\n\r\n")
            return up, down

        up, down = _with_server(
            MetricsRegistry(), probe_both, ready=lambda: ready["value"]
        )
        assert up[0] == "HTTP/1.1 200 OK"
        assert down[0] == "HTTP/1.1 503 Service Unavailable"


class TestErrorPaths:
    def test_unknown_path_404(self):
        async def probe(server):
            return await _request(server.port, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")

        status, _, _ = _with_server(MetricsRegistry(), probe)
        assert status == "HTTP/1.1 404 Not Found"

    def test_post_is_405(self):
        async def probe(server):
            return await _request(server.port, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")

        status, _, _ = _with_server(MetricsRegistry(), probe)
        assert status == "HTTP/1.1 405 Method Not Allowed"

    def test_garbage_request_line_400(self):
        async def probe(server):
            return await _request(server.port, b"NOT A REQUEST\r\n\r\n")

        status, _, _ = _with_server(MetricsRegistry(), probe)
        assert status == "HTTP/1.1 400 Bad Request"

    def test_query_string_ignored(self):
        async def probe(server):
            return await _request(
                server.port, b"GET /ready?probe=1 HTTP/1.1\r\nHost: t\r\n\r\n"
            )

        status, _, _ = _with_server(MetricsRegistry(), probe)
        assert status == "HTTP/1.1 200 OK"

    def test_stop_is_idempotent(self):
        async def runner():
            server = MetricsHttpServer(MetricsRegistry())
            await server.start()
            await server.stop()
            await server.stop()

        asyncio.run(runner())
