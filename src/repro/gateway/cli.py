"""``python -m repro gateway`` — serve, load, and scrape the ingest service.

Three subcommands mirror the subsystem's three roles:

- ``serve``   — run the TCP ingest server (plus the HTTP observability
  endpoint) until SIGTERM/SIGINT, then drain gracefully.
- ``load``    — replay a cataloged ``.rst`` trace through N simulated
  vehicles against a running gateway and print the achieved throughput,
  drop rate, and end-to-end latency percentiles.
- ``metrics`` — scrape a running gateway's ``/metrics`` endpoint and
  print the Prometheus text to stdout (a curl you always have).

Examples::

    python -m repro gateway serve --port 9400 --http-port 9401 --record-dir rec/
    python -m repro gateway load drive.rst --port 9400 --vehicles 16
    python -m repro gateway metrics --port 9401
"""

from __future__ import annotations

import argparse
import asyncio
import json

from repro.eval.report import format_table

__all__ = ["add_gateway_arguments", "run_gateway"]


def add_gateway_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``gateway`` subcommands to an argparse parser."""
    sub = parser.add_subparsers(dest="gateway_command", required=True)

    srv = sub.add_parser("serve", help="run the streaming ingest server")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=9400, help="ingest TCP port")
    srv.add_argument(
        "--http-port", type=int, default=0,
        help="metrics/health HTTP port (0 = ephemeral)",
    )
    srv.add_argument("--workers", type=int, default=4, help="detector worker threads")
    srv.add_argument("--queue-depth", type=int, default=4096, help="per-session queue bound")
    srv.add_argument(
        "--backend", choices=["threaded", "sharded"], default="threaded",
        help="detector pool: in-process threads, or repro.shard worker processes",
    )
    srv.add_argument("--record-dir", default=None, help="tee ingested traffic into this catalog")

    lod = sub.add_parser("load", help="replay-driven fleet load generator")
    lod.add_argument("trace", help="input .rst recording every vehicle replays")
    lod.add_argument("--host", default="127.0.0.1")
    lod.add_argument("--port", type=int, default=9400, help="gateway ingest port")
    lod.add_argument("--vehicles", type=int, default=4, help="simulated vehicles")
    lod.add_argument(
        "--speed", type=float, default=0.0,
        help="pacing multiplier vs recorded timestamps (0 = as fast as possible)",
    )
    lod.add_argument("--max-frames", type=int, default=None, help="cap frames per vehicle")
    lod.add_argument("--json", help="also write the load report to this path")

    met = sub.add_parser("metrics", help="scrape and print /metrics from a gateway")
    met.add_argument("--host", default="127.0.0.1")
    met.add_argument("--port", type=int, required=True, help="gateway HTTP port")
    met.add_argument("--path", default="/metrics", help="endpoint to fetch")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet.backend import ServeBackend
    from repro.fleet.scheduler import FleetScheduler
    from repro.gateway.http import MetricsHttpServer
    from repro.gateway.server import GatewayServer

    async def serve() -> None:
        backend: ServeBackend
        if args.backend == "sharded":
            from repro.shard import ShardedFleet

            backend = ShardedFleet(workers=args.workers, queue_depth=args.queue_depth)
        else:
            backend = FleetScheduler(workers=args.workers, queue_depth=args.queue_depth)
        server = GatewayServer(
            host=args.host,
            port=args.port,
            backend=backend,
            record_dir=args.record_dir,
        )
        await server.start()
        http = MetricsHttpServer(
            server.metrics,
            host=args.host,
            port=args.http_port,
            health=server.health,
            ready=lambda: server.ready,
        )
        await http.start()
        # run_until_signal installs its signal handlers before its first
        # await, so one yield after scheduling it a SIGTERM drains the
        # server: only then does a supervisor reading this line see it.
        serving = asyncio.ensure_future(server.run_until_signal())
        try:
            await asyncio.sleep(0)
            print(
                f"gateway listening on {args.host}:{server.port} "
                f"(http {args.host}:{http.port}); Ctrl-C to drain and stop",
                flush=True,
            )
            await serving
        finally:
            await http.stop()

    asyncio.run(serve())
    print("gateway drained and stopped", flush=True)
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.gateway.loadgen import LoadGenerator

    generator = LoadGenerator(
        args.host,
        args.port,
        args.trace,
        vehicles=args.vehicles,
        speed=args.speed,
        max_frames=args.max_frames,
    )
    report = asyncio.run(generator.run())
    summary = report.as_dict()
    latency = summary["e2e_latency_s"]
    rows = [
        ["vehicles", summary["vehicles"]],
        ["wall time (s)", f"{summary['wall_s']:.2f}"],
        ["frames sent", summary["frames_sent"]],
        ["frames processed", summary["frames_processed"]],
        ["dropped (queue)", summary["dropped_queue"]],
        ["drop fraction", f"{summary['drop_fraction']:.4f}"],
        ["achieved throughput (frames/s)", f"{summary['achieved_fps']:.0f}"],
        ["blinks detected", summary["blinks"]],
        ["e2e latency p50 (ms)", f"{latency['p50'] * 1e3:.2f}"],
        ["e2e latency p95 (ms)", f"{latency['p95'] * 1e3:.2f}"],
        ["e2e latency p99 (ms)", f"{latency['p99'] * 1e3:.2f}"],
    ]
    print(
        format_table(
            f"Gateway load: {args.vehicles} vehicles x {args.trace}",
            ["quantity", "value"],
            rows,
        )
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"load report written to {args.json}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    async def fetch() -> tuple[str, str]:
        reader, writer = await asyncio.open_connection(args.host, args.port)
        try:
            writer.write(
                f"GET {args.path} HTTP/1.1\r\nHost: {args.host}\r\n"
                "Connection: close\r\n\r\n".encode("ascii")
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        return head.split(b"\r\n", 1)[0].decode("latin-1"), body.decode("utf-8")

    status, body = asyncio.run(fetch())
    print(body, end="" if body.endswith("\n") else "\n")
    return 0 if " 200 " in status else 1


def run_gateway(args: argparse.Namespace) -> int:
    """Dispatch the parsed ``gateway`` subcommand."""
    handlers = {
        "serve": _cmd_serve,
        "load": _cmd_load,
        "metrics": _cmd_metrics,
    }
    return handlers[args.gateway_command](args)
