"""Command-line interface: ``python -m repro <command>``.

Five commands cover the everyday workflows:

- ``simulate``  — render a scenario to a labelled ``.npz`` trace.
- ``detect``    — run the BlinkRadar pipeline over a saved trace and score
  it against the embedded ground truth.
- ``vitals``    — respiration + heart rate from a saved trace.
- ``sweep``     — one of the paper's parameter sweeps, printed as a table.
- ``fleet``     — run many concurrent detector sessions (optionally with
  injected SPI faults) and print health + metrics.
- ``store``     — record, replay, inspect, and verify chunked ``.rst``
  recordings (the ``repro.store`` trace container).
- ``gateway``   — the streaming network ingest service: serve frames
  over TCP into the fleet, load-test it with replayed traces, scrape
  its Prometheus metrics.
- ``lint``      — run reprolint, the repo's AST-based invariant checker
  (determinism, lock discipline, event-loop blocking, resource leaks,
  ``or`` defaults). Its arguments go to ``repro.lint.cli`` untouched,
  and the linter is imported only when this command runs, so serving
  processes never load it.

Examples::

    python -m repro simulate --road bumpy --state drowsy --seed 7 -o drive.npz
    python -m repro detect drive.npz
    python -m repro vitals drive.npz
    python -m repro sweep distance --seeds 1 2 3
    python -m repro fleet --vehicles 8 --faults 2 --duration 30
    python -m repro store record --road bumpy -o drive.rst
    python -m repro store verify drive.rst
    python -m repro gateway serve --port 9400 --record-dir rec/
    python -m repro gateway load drive.rst --port 9400 --vehicles 16
    python -m repro lint src --format json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import BlinkRadar, RadarTrace, Scenario, simulate
from repro.datasets import EYE_SIZE_LEVELS
from repro.eval.metrics import score_blink_detection
from repro.eval.report import format_series, format_table
from repro.eval.sweeps import (
    azimuth_sweep,
    distance_sweep,
    elevation_sweep,
    eye_size_sweep,
    glasses_sweep,
    road_group_sweep,
)
from repro.gateway.cli import add_gateway_arguments, run_gateway
from repro.store.cli import add_store_arguments, run_store
from repro.physio import ParticipantProfile
from repro.rf.geometry import SensorPose
from repro.vehicle.road import ROAD_GROUPS, ROAD_TYPES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BlinkRadar reproduction: simulate, detect, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a driving session to .npz")
    sim.add_argument("--road", default="smooth_highway", choices=sorted(ROAD_TYPES))
    sim.add_argument("--state", default="awake", choices=["awake", "drowsy"])
    sim.add_argument("--duration", type=float, default=60.0, help="seconds")
    sim.add_argument("--distance", type=float, default=0.4, help="radar-to-eye metres")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--participant", default="CLI")
    sim.add_argument("-o", "--output", required=True, help="output .npz path")

    det = sub.add_parser("detect", help="detect blinks in a saved trace")
    det.add_argument("trace", help="input .npz path")

    vit = sub.add_parser("vitals", help="respiration + heart rate from a trace")
    vit.add_argument("trace", help="input .npz path")

    swp = sub.add_parser("sweep", help="run one of the paper's sweeps")
    swp.add_argument(
        "which",
        choices=["distance", "elevation", "azimuth", "glasses", "roads", "eyesize"],
    )
    swp.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    swp.add_argument("--duration", type=float, default=60.0)
    swp.add_argument("--csv", help="also write the series to this .csv/.json path")

    flt = sub.add_parser("fleet", help="concurrent multi-vehicle detection service")
    flt.add_argument("--vehicles", type=int, default=4, help="number of sessions")
    flt.add_argument("--duration", type=float, default=30.0, help="seconds per vehicle")
    flt.add_argument("--road", default="smooth_highway", choices=sorted(ROAD_TYPES))
    flt.add_argument("--state", default="awake", choices=["awake", "drowsy"])
    flt.add_argument("--seed", type=int, default=0, help="base seed (vehicle k uses seed+k)")
    flt.add_argument(
        "--faults", type=int, default=0,
        help="inject an SPI fault burst on this many vehicles",
    )
    flt.add_argument(
        "--fault-at", type=float, default=None,
        help="seconds into the stream to fault (default: 40%% of duration)",
    )
    flt.add_argument("--workers", type=int, default=4, help="detector worker threads")
    flt.add_argument("--queue-depth", type=int, default=4096, help="per-session queue bound")
    flt.add_argument(
        "--sharded", action="store_true",
        help="run detectors in shard worker processes (repro.shard) instead of threads",
    )
    flt.add_argument("--json", help="also write the metrics snapshot to this path")

    sto = sub.add_parser("store", help="record/replay/verify chunked .rst recordings")
    add_store_arguments(sto)

    gtw = sub.add_parser("gateway", help="streaming network ingest service + load harness")
    add_gateway_arguments(gtw)

    # Options belong to reprolint's own parser (``repro lint --help``);
    # main() hands it the raw arguments before this parser sees them.
    sub.add_parser("lint", add_help=False, help="run reprolint, the AST invariant checker")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = Scenario(
        participant=ParticipantProfile(args.participant),
        road=args.road,
        state=args.state,
        duration_s=args.duration,
        pose=SensorPose(distance_m=args.distance),
    )
    trace = simulate(scenario, seed=args.seed)
    trace.save(args.output)
    print(
        f"wrote {args.output}: {trace.n_frames} frames x {trace.n_bins} bins, "
        f"{len(trace.blink_events)} blinks, road={args.road}, state={args.state}"
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    trace = RadarTrace.load(args.trace)
    radar = BlinkRadar(frame_rate_hz=trace.frame_rate_hz)
    result = radar.detect(trace.frames)
    score = score_blink_detection(trace.blink_times_s, result.event_times_s)
    rows = [
        ["true blinks", len(trace.blink_events)],
        ["detected", len(result.events)],
        ["accuracy (paper metric)", f"{score.accuracy:.3f}"],
        ["precision", f"{score.precision:.3f}"],
        ["F1", f"{score.f1:.3f}"],
        ["detected rate (blinks/min)", f"{result.blink_rate_per_min():.1f}"],
        ["restarts", len(result.restart_times_s)],
    ]
    print(format_table(f"BlinkRadar on {args.trace}", ["quantity", "value"], rows))
    return 0


def _cmd_vitals(args: argparse.Namespace) -> int:
    from repro.core.vitals import VitalSignsMonitor

    trace = RadarTrace.load(args.trace)
    radar = BlinkRadar(frame_rate_hz=trace.frame_rate_hz)
    blinks = np.array([e.frame_index for e in radar.detect(trace.frames).events])
    vs = VitalSignsMonitor(trace.frame_rate_hz).measure(trace.frames, blink_frames=blinks)
    rows = [
        ["respiration (bpm)", f"{vs.respiration_bpm:.1f}"],
        ["heart rate (bpm)", f"{vs.heart_rate_bpm:.1f}"],
        ["torso bin / head bin", f"{vs.torso_bin} / {vs.head_bin}"],
    ]
    print(format_table(f"Vital signs from {args.trace}", ["quantity", "value"], rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = Scenario(
        participant=ParticipantProfile("CLI"),
        duration_s=args.duration,
        allow_posture_shifts=False,
    )
    if args.which == "distance":
        series = distance_sweep(base, args.seeds)
        title = "Accuracy vs distance (Fig. 15(b))"
    elif args.which == "elevation":
        series = elevation_sweep(base, args.seeds)
        title = "Accuracy vs elevation (Fig. 15(c))"
    elif args.which == "azimuth":
        series = azimuth_sweep(base, args.seeds)
        title = "Accuracy vs azimuth (Fig. 15(d))"
    elif args.which == "glasses":
        series = glasses_sweep(base, args.seeds)
        title = "Accuracy vs eyewear (Fig. 16(a))"
    elif args.which == "roads":
        series = road_group_sweep(base, args.seeds, ROAD_GROUPS)
        title = "Accuracy vs road group (Fig. 16(b))"
    else:
        series = eye_size_sweep(base, args.seeds, EYE_SIZE_LEVELS)
        title = "Accuracy vs eye size (Fig. 16(c))"
    print(format_series(title, series, unit="accuracy"))
    if args.csv:
        from repro.eval.export import export_series

        path = export_series(args.csv, series, x_label=args.which, y_label="accuracy")
        print(f"series written to {path}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetScheduler, FleetService, ServeBackend, VehicleSpec

    if args.vehicles < 1:
        raise SystemExit("fleet: need at least one vehicle")
    if not 0 <= args.faults <= args.vehicles:
        raise SystemExit(f"fleet: --faults must be in 0..{args.vehicles}")
    fault_at = args.fault_at if args.fault_at is not None else 0.4 * args.duration
    backend: ServeBackend
    if args.sharded:
        from repro.shard import ShardedFleet

        backend = ShardedFleet(workers=args.workers, queue_depth=args.queue_depth)
    else:
        backend = FleetScheduler(workers=args.workers, queue_depth=args.queue_depth)
    service = FleetService(backend)
    for k in range(args.vehicles):
        service.add_vehicle(
            VehicleSpec(
                f"v{k:02d}",
                road=args.road,
                state=args.state,
                duration_s=args.duration,
                seed=args.seed + k,
                fault_at_s=fault_at if k < args.faults else None,
            )
        )
    service.run()

    rows = [
        [
            sid,
            h["state"],
            h["frames_processed"],
            h["blinks"],
            h["restarts"],
            h["dropped_fifo"],
            h["dropped_queue"],
        ]
        for sid, h in service.health().items()
    ]
    print(
        format_table(
            f"Fleet: {args.vehicles} vehicles x {args.duration:.0f} s "
            f"({args.faults} faulted)",
            ["session", "state", "frames", "blinks", "restarts", "fifo drops", "q drops"],
            rows,
        )
    )
    snap = service.metrics_snapshot()
    latency = snap["histograms"].get("fleet.latency_s", {"count": 0})
    summary = [
        ["frames processed", snap["counters"].get("fleet.frames_processed", 0)],
        ["blinks", snap["counters"].get("fleet.blinks", 0)],
        ["restarts", snap["counters"].get("fleet.restarts", 0)],
        ["throughput (frames/s)", f"{snap['gauges'].get('fleet.throughput_fps', 0.0):.0f}"],
    ]
    if latency["count"]:
        summary += [
            ["latency p50 (ms)", f"{latency['p50'] * 1e3:.2f}"],
            ["latency p95 (ms)", f"{latency['p95'] * 1e3:.2f}"],
            ["latency p99 (ms)", f"{latency['p99'] * 1e3:.2f}"],
        ]
    print(format_table("Fleet metrics", ["quantity", "value"], summary))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
        print(f"metrics snapshot written to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "detect": _cmd_detect,
        "vitals": _cmd_vitals,
        "sweep": _cmd_sweep,
        "fleet": _cmd_fleet,
        "store": run_store,
        "gateway": run_gateway,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
