"""CI smoke check for the gateway ingest service.

Brings the whole network stack up for real — TCP listener, HTTP
observability endpoint, scheduler worker pool — drives it with a small
client fleet, and verifies the three properties the gateway-smoke job
gates on:

1. **Zero loss below the backpressure threshold.** Each vehicle sends
   fewer frames than the per-session queue bound, so every frame pushed
   must come out of a detector; any shed frame fails the check.
2. **Well-formed, conserving /metrics.** The Prometheus scrape parses
   line by line (``# HELP``/``# TYPE`` comments plus ``name{labels}
   value`` samples), the gateway's frame counter agrees exactly with
   what the clients sent, and every received frame is accounted once:
   received = processed + queue, stale and crash drops + unrouted.
   Every vehicle has said BYE by the scrape, so no per-session series
   may remain. The server's own memory (``repro_process_rss_bytes``,
   ``repro_process_peak_rss_bytes``) must agree with this process's
   ``/proc/self/status`` (the server runs in it) within 5 MB, where
   there is a ``/proc``. ``/healthz`` and ``/ready`` must answer 200.
3. **Bit-identical ingest.** Every server-side recording's content hash
   equals the source trace's.

Exit status 0 on success, 1 with a diagnostic on any failure::

    PYTHONPATH=src python tools/gateway_smoke.py --vehicles 4
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet.backend import ServeBackend  # noqa: E402
from repro.fleet.scheduler import FleetScheduler  # noqa: E402
from repro.gateway.http import MetricsHttpServer  # noqa: E402
from repro.gateway.loadgen import LoadGenerator, LoadReport  # noqa: E402
from repro.gateway.server import GatewayServer  # noqa: E402
from repro.physio import ParticipantProfile  # noqa: E402
from repro.sim import Scenario, simulate  # noqa: E402
from repro.store.reader import TraceReader  # noqa: E402
from repro.store.writer import TraceWriter  # noqa: E402

#: A Prometheus text-format sample line: metric name, optional label
#: set, and a value (float, integer, or NaN).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.eE+-]+|NaN)$"
)

#: How far the scraped memory gauges may sit from ``/proc/self/status``
#: read just after the scrape, in bytes.
_MEMORY_TOLERANCE_BYTES = 5 * 2**20

#: Scraped series -> the ``/proc/self/status`` field it must match.
_MEMORY_SERIES = {"repro_process_rss_bytes": "VmRSS", "repro_process_peak_rss_bytes": "VmHWM"}

#: Where a received frame ends up once the fleet is drained; a family
#: missing from the scrape counts as 0.
_FRAME_OUTCOMES = (
    "repro_fleet_frames_processed_total",
    "repro_fleet_dropped_queue_total",
    "repro_fleet_dropped_stale_total",
    "repro_fleet_dropped_crash_total",
    "repro_shard_unrouted_frames_total",
)


def record_drive(path: Path, duration_s: float, seed: int) -> None:
    scenario = Scenario(
        participant=ParticipantProfile("SMK"),
        road="parked",
        state="awake",
        duration_s=duration_s,
        allow_posture_shifts=False,
    )
    trace = simulate(scenario, seed=seed)
    with TraceWriter(
        path, n_bins=trace.n_bins, frame_rate_hz=trace.frame_rate_hz
    ) as writer:
        for i in range(trace.n_frames):
            writer.append(trace.frames[i], i / trace.frame_rate_hz)


async def http_get(port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def proc_status_bytes(pid: int | str, fields: set[str]) -> dict[str, int] | None:
    """The given kB fields of ``/proc/<pid>/status`` in bytes; None without it."""
    try:
        lines = Path(f"/proc/{pid}/status").read_text().splitlines()
    except OSError:
        return None
    values = {}
    for line in lines:
        key, _, value = line.partition(":")
        if key in fields:
            values[key] = int(value.split()[0]) * 1024
    return values


def check_scrape(text: str, frames_sent: int) -> list[str]:
    """Return a list of problems with the /metrics payload (empty = ok).

    Taken once every vehicle has said BYE: a finished session's series
    must have left the scrape.
    """
    problems = []
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("# "):
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"malformed sample line: {line!r}")
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    stale = sorted(name for name in samples if 'session="' in name)
    if stale:
        problems.append(f"{len(stale)} series of finished sessions remain, e.g. {stale[0]!r}")
    expected = f"repro_gateway_frames_received_total {frames_sent}"
    if expected not in text.splitlines():
        problems.append(f"scrape lacks {expected!r}")
    if "# TYPE repro_gateway_frames_received_total counter" not in text:
        problems.append("frame counter family lacks a TYPE line")
    received = samples.get("repro_gateway_frames_received_total", 0.0)
    outcomes = {name: samples.get(name, 0.0) for name in _FRAME_OUTCOMES}
    if received != sum(outcomes.values()):
        problems.append(f"received {received:g} frames, but they sum to {outcomes}")
    status = proc_status_bytes("self", set(_MEMORY_SERIES.values()))
    if status is None:
        return problems
    for series, field in _MEMORY_SERIES.items():
        if series not in samples:
            problems.append(f"scrape lacks {series}")
        elif abs(samples[series] - status[field]) > _MEMORY_TOLERANCE_BYTES:
            problems.append(
                f"{series} = {samples[series]:.0f} B, but {field} reads {status[field]} B"
            )
    return problems


async def run_smoke(args: argparse.Namespace, drive: Path, record_dir: Path) -> int:
    backend: ServeBackend
    if args.backend == "sharded":
        from repro.shard import ShardedFleet

        backend = ShardedFleet(workers=args.workers, queue_depth=args.queue_depth)
    else:
        backend = FleetScheduler(workers=args.workers, queue_depth=args.queue_depth)
    server = GatewayServer(backend=backend, record_dir=record_dir)
    await server.start()
    http = MetricsHttpServer(
        server.metrics, health=server.health, ready=lambda: server.ready
    )
    await http.start()
    print(
        f"gateway up on 127.0.0.1:{server.port} "
        f"(metrics :{http.port}, {args.workers} {args.backend} workers, "
        f"queue depth {args.queue_depth})"
    )
    failures = []
    try:
        fleet = LoadGenerator(
            "127.0.0.1", server.port, drive,
            vehicles=args.vehicles, max_frames=args.frames,
        )
        report: LoadReport = await fleet.run()
        print(
            f"{args.vehicles} clients sent {report.frames_sent} frames: "
            f"processed={report.frames_processed} "
            f"dropped={report.dropped_queue} "
            f"({report.achieved_fps:.0f} frames/s)"
        )

        # 1. Below the backpressure threshold, ingest must be lossless.
        if args.frames > args.queue_depth:
            failures.append(
                f"misconfigured smoke: {args.frames} frames/vehicle exceeds "
                f"queue depth {args.queue_depth} — the zero-loss gate only "
                "holds below the backpressure threshold"
            )
        if report.dropped_queue != 0:
            failures.append(f"{report.dropped_queue} frames shed below threshold")
        if report.frames_processed != report.frames_sent:
            failures.append(
                f"processed {report.frames_processed} != sent {report.frames_sent}"
            )

        # 2. The observability surface answers and parses.
        status, body = await http_get(http.port, "/metrics")
        if status != 200:
            failures.append(f"/metrics answered {status}")
        failures.extend(check_scrape(body.decode(), report.frames_sent))
        status, body = await http_get(http.port, "/healthz")
        if status != 200:
            failures.append(f"/healthz answered {status}")
        else:
            json.loads(body)  # must be valid JSON
        status, _ = await http_get(http.port, "/ready")
        if status != 200:
            failures.append(f"/ready answered {status}")
    finally:
        await http.stop()
        await server.shutdown()

    # 3. Socket ingest is bit-identical to the recorded source.
    with TraceReader(drive) as reader:
        source_hash = reader.content_hash()
    recordings = sorted(record_dir.glob("veh*.rst"))
    if len(recordings) != args.vehicles:
        failures.append(f"{len(recordings)} recordings for {args.vehicles} vehicles")
    for path in recordings:
        with TraceReader(path) as reader:
            if reader.content_hash() != source_hash:
                failures.append(f"{path.name} diverges from the source trace")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"smoke ok: zero loss, /metrics well-formed and conserving, "
        f"{len(recordings)} recordings bit-identical to source"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vehicles", type=int, default=4)
    parser.add_argument("--frames", type=int, default=150, help="frames per vehicle")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=4096)
    parser.add_argument(
        "--backend", choices=["threaded", "sharded"], default="threaded",
        help="scheduler backend the gateway multiplexes into",
    )
    parser.add_argument("--seed", type=int, default=19)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        drive = Path(tmp) / "drive.rst"
        record_dir = Path(tmp) / "recordings"
        record_dir.mkdir()
        record_drive(drive, duration_s=args.frames / 25.0, seed=args.seed)
        return asyncio.run(run_smoke(args, drive, record_dir))


if __name__ == "__main__":
    sys.exit(main())
