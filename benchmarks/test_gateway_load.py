"""Gateway ingest capacity — how many vehicles one socket endpoint serves.

Not a paper figure: this benchmark sizes ``repro.gateway``, the network
front door in front of the fleet scheduler. A :class:`LoadGenerator`
fleet of 16, 64 and 256 simulated vehicles replays the same recorded
drive through real TCP connections as fast as the sockets accept
(unpaced, i.e. saturation), and we record the aggregate ingest
throughput plus the honest client-measured end-to-end latency
percentiles — wire framing, CRC, scheduler queueing and detector math
all included, as measured from the completion acks.

The per-session queue bound (4096) exceeds the frames each vehicle
sends, so every run below is *below the backpressure threshold* and must
be lossless; drop-oldest shedding is exercised separately by the unit
suite. Results land in ``BENCH_gateway.json`` so the capacity trajectory
survives across PRs.
"""

import asyncio
import json
from pathlib import Path

import pytest

from conftest import print_block
from repro.eval.report import format_table
from repro.fleet import FleetScheduler
from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import GatewayServer
from repro.physio import ParticipantProfile
from repro.sim import Scenario, simulate
from repro.store.writer import TraceWriter

BENCH_PATH = Path(__file__).parent / "BENCH_gateway.json"
FLEET_SIZES = [16, 64, 256]
WORKERS = 4
QUEUE_DEPTH = 4096
FRAMES_PER_VEHICLE = 100
FRAME_RATE_HZ = 25.0


@pytest.fixture(scope="module")
def drive_path(tmp_path_factory) -> Path:
    """A short parked drive as an ``.rst`` recording every vehicle replays."""
    scenario = Scenario(
        participant=ParticipantProfile("GWB"),
        road="parked",
        state="awake",
        duration_s=FRAMES_PER_VEHICLE / FRAME_RATE_HZ,
        allow_posture_shifts=False,
    )
    trace = simulate(scenario, seed=63)
    path = tmp_path_factory.mktemp("gateway-bench") / "drive.rst"
    with TraceWriter(
        path, n_bins=trace.n_bins, frame_rate_hz=trace.frame_rate_hz
    ) as writer:
        for i in range(trace.n_frames):
            writer.append(trace.frames[i], i / trace.frame_rate_hz)
    return path


def run_load(drive_path: Path, n_vehicles: int) -> dict:
    async def go():
        server = GatewayServer(
            backend=FleetScheduler(workers=WORKERS, queue_depth=QUEUE_DEPTH)
        )
        await server.start()
        try:
            generator = LoadGenerator(
                "127.0.0.1",
                server.port,
                drive_path,
                vehicles=n_vehicles,
                max_frames=FRAMES_PER_VEHICLE,
            )
            return await generator.run()
        finally:
            await server.shutdown()

    report = asyncio.run(go())

    # Conservation and losslessness below the backpressure threshold:
    # every frame pushed was either processed or (never, here) shed.
    assert report.frames_sent == n_vehicles * FRAMES_PER_VEHICLE
    assert report.frames_processed + report.dropped_queue == report.frames_sent
    assert report.dropped_queue == 0
    return report.as_dict()


@pytest.mark.slow
def test_gateway_load(drive_path):
    results = [run_load(drive_path, n) for n in FLEET_SIZES]

    rows = [
        [
            r["vehicles"],
            r["frames_sent"],
            f"{r['wall_s']:.2f}",
            f"{r['achieved_fps']:.0f}",
            f"{r['achieved_fps'] / (FRAME_RATE_HZ * r['vehicles']):.1f}x",
            f"{r['e2e_latency_s']['p50'] * 1e3:.0f}",
            f"{r['e2e_latency_s']['p95'] * 1e3:.0f}",
            f"{r['e2e_latency_s']['p99'] * 1e3:.0f}",
        ]
        for r in results
    ]
    print_block(
        format_table(
            f"Gateway ingest capacity ({WORKERS} workers, "
            f"{FRAMES_PER_VEHICLE} frames/vehicle, unpaced)",
            [
                "vehicles",
                "frames",
                "wall s",
                "frames/s",
                "real-time",
                "p50 ms",
                "p95 ms",
                "p99 ms",
            ],
            rows,
        )
    )

    BENCH_PATH.write_text(
        json.dumps(
            {
                "workers": WORKERS,
                "queue_depth": QUEUE_DEPTH,
                "frames_per_vehicle": FRAMES_PER_VEHICLE,
                "results": results,
            },
            indent=2,
        )
    )

    # Shape, not absolute numbers: the latency estimate must be fed by
    # real samples and be internally ordered; the smaller fleets must
    # beat their own real-time budget (25 FPS per vehicle) — the claim
    # that makes a socket front door viable at all — and at 256
    # vehicles, where a 4-worker pool may saturate below the 6400 fps
    # budget, aggregate throughput must hold up rather than collapse
    # under connection overhead.
    for r in results:
        assert r["latency_samples"] > 0
        p = r["e2e_latency_s"]
        assert p["p50"] <= p["p95"] <= p["p99"]
    for r in results[:2]:
        assert r["achieved_fps"] > FRAME_RATE_HZ * r["vehicles"]
    assert results[-1]["achieved_fps"] > 0.5 * results[0]["achieved_fps"]
