"""Minimal HTTP observability endpoint for the gateway.

:class:`MetricsHttpServer` is a dependency-free asyncio HTTP/1.1
responder with exactly three routes:

- ``GET /metrics`` — the shared registry in Prometheus text exposition
  format (:meth:`~repro.fleet.metrics.MetricsRegistry.render_prometheus`).
  Each render first sets the ``process.rss_bytes`` and
  ``process.peak_rss_bytes`` gauges from this process's VmRSS and VmHWM
  (``repro_process_rss_bytes``, ``repro_process_peak_rss_bytes``); where
  there is no ``/proc``, neither series appears.
- ``GET /healthz`` — a JSON liveness snapshot (the gateway's
  :meth:`~repro.gateway.server.GatewayServer.health` payload).
- ``GET /ready`` — readiness probe: 200 while the gateway accepts
  traffic, 503 while stopped or draining.

It deliberately speaks just enough HTTP for a scraper and a load
balancer: one request per connection, ``Connection: close``, no
keep-alive, no TLS. Anything fancier belongs in front of it.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Callable

from repro.fleet.metrics import MetricsRegistry

__all__ = ["MetricsHttpServer"]

#: Upper bound on request head size; a scrape request is ~100 bytes.
_MAX_REQUEST_BYTES = 8192

#: Content type Prometheus scrapers expect for the text format.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Where this process's resident and peak resident set are read from.
_PROC_STATUS = "/proc/self/status"

#: ``/proc/<pid>/status`` field -> the registry gauge it sets.
_MEMORY_GAUGES = {b"VmRSS": "process.rss_bytes", b"VmHWM": "process.peak_rss_bytes"}


def _record_process_memory(registry: MetricsRegistry) -> None:
    """Set the process memory gauges from VmRSS and VmHWM (kB), if readable.

    One ``os.open``/``read``/``close`` of procfs per scrape (about 30 µs);
    nothing on the frame path reads it.
    """
    try:
        fd = os.open(_PROC_STATUS, os.O_RDONLY)
    except OSError:
        return
    try:
        status = os.read(fd, 16384)
    finally:
        os.close(fd)
    for line in status.splitlines():
        key, _, value = line.partition(b":")
        name = _MEMORY_GAUGES.get(key)
        if name is not None:
            registry.gauge(name).set(int(value.split()[0]) * 1024)


def _response(status: int, reason: str, content_type: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class MetricsHttpServer:
    """Serve ``/metrics``, ``/healthz`` and ``/ready`` off a registry.

    Parameters
    ----------
    registry:
        The metrics registry to render on ``/metrics``.
    host / port:
        Listen address; port 0 binds an ephemeral port (see
        :attr:`port` after :meth:`start`).
    health:
        Optional callable returning the ``/healthz`` JSON payload
        (defaults to a bare ``{"status": "ok"}``).
    ready:
        Optional callable returning readiness for ``/ready`` (defaults
        to always ready).
    namespace:
        Prometheus metric-name namespace prefix.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        health: Callable[[], dict[str, Any]] | None = None,
        ready: Callable[[], bool] | None = None,
        namespace: str = "repro",
    ) -> None:
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._health = health
        self._ready = ready
        self.namespace = namespace
        self._server: asyncio.base_events.Server | None = None

    @property
    def port(self) -> int:
        """The bound listen port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("metrics server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind and start answering scrapes."""
        if self._server is not None:
            raise RuntimeError("metrics server already started")
        self._server = await asyncio.start_server(
            self._serve_request, host=self.host, port=self._requested_port
        )

    async def stop(self) -> None:
        """Stop listening. Idempotent."""
        server = self._server
        self._server = None
        if server is not None:
            server.close()
            await server.wait_closed()

    # ---------------------------------------------------------------- serving
    async def _serve_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError):
            writer.close()
            return
        if len(head) > _MAX_REQUEST_BYTES:
            writer.write(_response(431, "Request Header Fields Too Large", "text/plain", b""))
        else:
            writer.write(self._route(head.split(b"\r\n", 1)[0].decode("latin-1")))
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # scraper hung up first; response delivery is best-effort

    def _route(self, request_line: str) -> bytes:
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return _response(400, "Bad Request", "text/plain", b"malformed request line\n")
        method, target = parts[0], parts[1].split("?", 1)[0]
        if method != "GET":
            return _response(405, "Method Not Allowed", "text/plain", b"GET only\n")
        if target == "/metrics":
            _record_process_memory(self.registry)
            body = self.registry.render_prometheus(self.namespace).encode("utf-8")
            return _response(200, "OK", _PROM_CONTENT_TYPE, body)
        if target == "/healthz":
            payload = self._health() if self._health is not None else {"status": "ok"}
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            return _response(200, "OK", "application/json", body)
        if target == "/ready":
            ready = self._ready() if self._ready is not None else True
            status, reason = (200, "OK") if ready else (503, "Service Unavailable")
            body = (json.dumps({"ready": ready}) + "\n").encode("utf-8")
            return _response(status, reason, "application/json", body)
        return _response(404, "Not Found", "text/plain", b"unknown path\n")
