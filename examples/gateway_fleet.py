"""A simulated vehicle fleet streaming frames to the ingest gateway.

Everything the network subsystem does, end to end, in one script: a
short drive is recorded to a ``.rst`` trace, a :class:`GatewayServer`
opens a TCP port in front of the shared fleet scheduler, and a
:class:`LoadGenerator` fleet of six vehicles replays the drive over real
sockets — length-prefixed frames, CRC-32, completion acks and all. A
:class:`MetricsHttpServer` exposes the same run as a Prometheus scrape.

The punchline is the determinism check at the end: the gateway tees
every ingested session into its own ``.rst`` catalog, and each recorded
file's content hash equals the source trace's — the socket path is
bit-identical to a local replay.

Run:
    python examples/gateway_fleet.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.fleet import FleetScheduler
from repro.gateway.http import MetricsHttpServer
from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import GatewayServer
from repro.physio import ParticipantProfile
from repro.sim import Scenario, simulate
from repro.store import Catalog
from repro.store.reader import TraceReader
from repro.store.writer import TraceWriter

N_VEHICLES = 6
DURATION_S = 8.0


def record_drive(path: Path) -> None:
    """Simulate one short parked drive and freeze it as ``.rst``."""
    scenario = Scenario(
        participant=ParticipantProfile("GW1"),
        road="parked",
        state="awake",
        duration_s=DURATION_S,
        allow_posture_shifts=False,
    )
    trace = simulate(scenario, seed=7)
    with TraceWriter(
        path, n_bins=trace.n_bins, frame_rate_hz=trace.frame_rate_hz
    ) as writer:
        for i in range(trace.n_frames):
            writer.append(trace.frames[i], i / trace.frame_rate_hz)


async def serve_fleet(drive: Path, record_dir: Path) -> None:
    server = GatewayServer(backend=FleetScheduler(workers=4), record_dir=record_dir)
    await server.start()
    http = MetricsHttpServer(
        server.metrics, health=server.health, ready=lambda: server.ready
    )
    await http.start()
    print(f"gateway listening on 127.0.0.1:{server.port}, "
          f"metrics on http://127.0.0.1:{http.port}/metrics")
    try:
        fleet = LoadGenerator(
            "127.0.0.1", server.port, drive, vehicles=N_VEHICLES, speed=0.0
        )
        report = await fleet.run()

        summary = report.as_dict()
        print(f"\n{summary['vehicles']} vehicles pushed "
              f"{summary['frames_sent']} frames in {summary['wall_s']:.2f} s "
              f"({summary['achieved_fps']:.0f} frames/s aggregate)")
        print(f"processed={summary['frames_processed']} "
              f"dropped={summary['dropped_queue']} blinks={summary['blinks']}")
        p = summary["e2e_latency_s"]
        print(f"e2e latency p50={p['p50'] * 1e3:.0f} ms  "
              f"p95={p['p95'] * 1e3:.0f} ms  p99={p['p99'] * 1e3:.0f} ms")

        scrape = server.metrics.render_prometheus()
        gateway_lines = [
            line for line in scrape.splitlines()
            if line.startswith("repro_gateway_") and not line.startswith("# ")
        ]
        print("\nPrometheus scrape (gateway families):")
        for line in gateway_lines:
            print(f"  {line}")
    finally:
        await http.stop()
        await server.shutdown()


def verify_recordings(drive: Path, record_dir: Path) -> None:
    """Every gateway-side recording hashes identically to the source."""
    with TraceReader(drive) as reader:
        source_hash = reader.content_hash()
    recordings = sorted(record_dir.glob("veh*.rst"))
    assert len(recordings) == N_VEHICLES, (len(recordings), N_VEHICLES)
    for path in recordings:
        with TraceReader(path) as reader:
            assert reader.content_hash() == source_hash, path.name
    print(f"\n{len(recordings)} gateway recordings verified: "
          f"content hash {source_hash[:16]}… matches the source trace "
          f"(socket ingest is bit-identical to local replay)")
    # The catalog dedupes by content hash — six identical replays fold
    # into one entry, which is exactly what a trace collector wants.
    catalog = Catalog(record_dir, create=False)
    print(f"catalog holds {len(catalog.names())} unique drive(s) "
          f"for {len(recordings)} recordings")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        drive = Path(tmp) / "drive.rst"
        record_dir = Path(tmp) / "recordings"
        record_dir.mkdir()
        print(f"recording a {DURATION_S:.0f} s drive ...")
        record_drive(drive)
        asyncio.run(serve_fleet(drive, record_dir))
        verify_recordings(drive, record_dir)


if __name__ == "__main__":
    main()
