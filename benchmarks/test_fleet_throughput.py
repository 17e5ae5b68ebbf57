"""Fleet throughput — how many vehicles one host can serve.

Not a paper figure: this benchmark sizes the ``repro.fleet`` service.
The same 10 s world is registered 1, 4 and 16 times and pumped through
the shared worker pool as fast as the detectors allow; we record the
aggregate detection throughput and the queue-to-detector latency
percentiles at saturation (the pump is unpaced, so latency here measures
backlog drain, i.e. how far behind a session may fall before the bounded
queue starts shedding).

The paper's real-time budget is one frame per 40 ms per vehicle
(25 FPS); the service clears it when aggregate throughput exceeds
``25 x n_sessions``. Results land in ``BENCH_fleet.json`` so the perf
trajectory survives across PRs.
"""

import json
import os
from pathlib import Path

import pytest

from conftest import base_scenario, print_block
from repro.eval.report import format_table
from repro.fleet import FleetScheduler, FleetService, ServeBackend
from repro.shard import ShardedFleet

BENCH_PATH = Path(__file__).parent / "BENCH_fleet.json"
FLEET_SIZES = [1, 4, 16]
#: Backend-comparison fleet sizes: 64 is the ROADMAP's "one host" target
#: where the threaded GIL ceiling binds; 256 probes the p99 trend beyond it.
SCALE_SIZES = [64, 256]
WORKERS = 4
FRAME_RATE_HZ = 25.0


@pytest.fixture(scope="module")
def shared_trace(trace_catalog):
    # Through the store catalog: recorded once as .rst, replayed
    # bit-for-bit on every later run, so the benchmark input is frozen.
    return trace_catalog.get_or_simulate(
        base_scenario(duration_s=10.0, road="smooth_highway"), seed=55
    )


@pytest.fixture(scope="module")
def scale_trace(trace_catalog):
    # Shorter world for the 256-session sweep: the comparison needs many
    # sessions, not many frames per session.
    return trace_catalog.get_or_simulate(
        base_scenario(duration_s=4.0, road="smooth_highway"), seed=56
    )


def run_fleet(
    trace, n_sessions: int, backend: str = "threaded", queue_depth: int = 4096
) -> dict:
    pool: ServeBackend
    if backend == "sharded":
        pool = ShardedFleet(workers=WORKERS, queue_depth=queue_depth)
    else:
        pool = FleetScheduler(workers=WORKERS, queue_depth=queue_depth)
    service = FleetService(pool)
    for k in range(n_sessions):
        service.add_session(f"v{k:02d}", trace.frames)
    service.run()
    snap = service.metrics_snapshot()
    latency = snap["histograms"]["fleet.latency_s"]
    frames = snap["counters"]["fleet.frames_processed"]
    assert frames == n_sessions * trace.n_frames  # lossless at chosen depth
    return {
        "backend": backend,
        "sessions": n_sessions,
        "workers": WORKERS,
        "frames": frames,
        "wall_s": snap["gauges"]["fleet.wall_s"],
        "throughput_fps": snap["gauges"]["fleet.throughput_fps"],
        "latency_p50_s": latency["p50"],
        "latency_p95_s": latency["p95"],
        "latency_p99_s": latency["p99"],
    }


def _merge_bench(update: dict) -> None:
    """Merge ``update`` into BENCH_fleet.json (tests may run standalone)."""
    merged = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    merged.update(update)
    BENCH_PATH.write_text(json.dumps(merged, indent=2))


@pytest.mark.slow
def test_fleet_throughput(shared_trace):
    results = [run_fleet(shared_trace, n) for n in FLEET_SIZES]

    rows = [
        [
            r["sessions"],
            r["frames"],
            f"{r['wall_s']:.2f}",
            f"{r['throughput_fps']:.0f}",
            f"{r['throughput_fps'] / (FRAME_RATE_HZ * r['sessions']):.1f}x",
            f"{r['latency_p95_s'] * 1e3:.0f}",
        ]
        for r in results
    ]
    print_block(
        format_table(
            f"Fleet throughput ({WORKERS} workers, 10 s world per session)",
            ["sessions", "frames", "wall s", "frames/s", "real-time", "p95 ms"],
            rows,
        )
    )

    _merge_bench({"workers": WORKERS, "results": results})

    # Shape, not absolute numbers: every fleet size must beat its own
    # real-time budget (25 FPS per vehicle), and concurrent sessions must
    # actually use the pool — 16 sessions keep more workers busy than 1
    # (per-session FIFO order caps a single session at one worker).
    for r in results:
        assert r["throughput_fps"] > FRAME_RATE_HZ * r["sessions"]
    assert results[-1]["throughput_fps"] > 1.3 * results[0]["throughput_fps"]


@pytest.mark.slow
def test_backend_scaling(scale_trace):
    """Threaded vs sharded at 64/256 sessions: the GIL-ceiling figure.

    The threaded scheduler flat-lines once the interpreter saturates one
    core; the sharded backend's workers score their shards in parallel
    processes. On a multi-core host the sharded curve must clear 2x the
    threaded ceiling at 64 sessions, with p99 at 256 sessions no worse
    than the threaded p99 at 16 — near-linear session scaling with flat
    tail latency. Single-core hosts still run the sweep (the numbers are
    recorded either way) but only the conservation checks are asserted.
    """

    def depth_for(n_sessions: int) -> int:
        # One ring per shard, shared by its whole session slice: size it
        # to hold every frame the unpaced pump can enqueue, so the
        # comparison measures compute, not drop-newest shedding.
        return -(-n_sessions // WORKERS) * scale_trace.n_frames

    threaded = {
        n: run_fleet(scale_trace, n, backend="threaded")
        for n in [16, *SCALE_SIZES]
    }
    sharded = {
        n: run_fleet(scale_trace, n, backend="sharded", queue_depth=depth_for(n))
        for n in SCALE_SIZES
    }

    results = [*threaded.values(), *sharded.values()]
    rows = [
        [
            r["backend"],
            r["sessions"],
            f"{r['wall_s']:.2f}",
            f"{r['throughput_fps']:.0f}",
            f"{r['latency_p99_s'] * 1e3:.0f}",
        ]
        for r in results
    ]
    print_block(
        format_table(
            f"Fleet backend scaling ({WORKERS} workers/shards, "
            f"{os.cpu_count()} cores, 4 s world per session)",
            ["backend", "sessions", "wall s", "frames/s", "p99 ms"],
            rows,
        )
    )

    _merge_bench({"backends": {"cores": os.cpu_count(), "results": results}})

    if (os.cpu_count() or 1) >= 4:
        # The tentpole acceptance bar, meaningful only with real cores.
        assert (
            sharded[64]["throughput_fps"] >= 2.0 * threaded[64]["throughput_fps"]
        ), "sharded backend does not clear 2x the threaded ceiling at 64 sessions"
        assert sharded[256]["latency_p99_s"] <= threaded[16]["latency_p99_s"], (
            "sharded p99 at 256 sessions regressed past threaded p99 at 16"
        )
