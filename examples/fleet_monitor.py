"""A fleet of vehicles monitored concurrently, faults and all.

Eight simulated vehicles stream through one ``FleetService``: a shared
worker pool runs every per-vehicle blink detector, bounded queues apply
backpressure, and three of the vehicles suffer injected SPI fault bursts
mid-drive — the marginal-harness failure a deployed head unit actually
sees. The monitor proves three things end to end:

- every faulted session recovers (DEGRADED -> COLD_START -> RUNNING)
  and still finishes STOPPED;
- the scheduler changes nothing: a clean session's blinks are identical
  to the single-session offline pipeline on the same frames, and a
  faulted session's to the same vehicle run serially, fault and all;
- the metrics registry captures it all — restarts, counted frame drops,
  latency percentiles — in one JSON-ready snapshot.

Run:
    python examples/fleet_monitor.py
"""

from repro.core.realtime import RealTimeBlinkDetector
from repro.eval.metrics import score_blink_detection
from repro.fleet import FleetScheduler, FleetService, StateChangeEvent, VehicleSpec
from repro.hardware import FrameStream, SpiBus, UwbRadarDevice, XepDriver

N_VEHICLES = 8
DURATION_S = 20.0
ROADS = ["smooth_highway", "bumpy", "smooth_highway", "parked"]
#: Vehicle id -> seconds into the drive its SPI harness glitches.
FAULTS = {"v01": 6.0, "v04": 9.0, "v06": 13.0}


def main() -> None:
    specs = [
        VehicleSpec(
            f"v{k:02d}",
            road=ROADS[k % len(ROADS)],
            state="drowsy" if k % 3 == 2 else "awake",
            duration_s=DURATION_S,
            seed=100 + k,
            fault_at_s=FAULTS.get(f"v{k:02d}"),
        )
        for k in range(N_VEHICLES)
    ]
    service = FleetService(FleetScheduler(workers=4))
    for spec in specs:
        service.add_vehicle(spec)
    print(f"monitoring {N_VEHICLES} vehicles ({len(FAULTS)} with injected SPI faults) ...")
    service.run()

    print("\nper-session health:")
    for sid, h in service.health().items():
        flag = "  <- faulted" if sid in FAULTS else ""
        print(
            f"  {sid}: {h['state']:8s} frames={h['frames_processed']:4d} "
            f"blinks={h['blinks']:2d} restarts={h['restarts']} "
            f"fifo_drops={h['dropped_fifo']}{flag}"
        )
        assert h["state"] == "stopped", f"{sid} did not exit cleanly"

    # Every faulted session must have walked the full recovery path.
    for sid in FAULTS:
        seq = [
            (e.old_state, e.new_state)
            for e in service.events_of(StateChangeEvent)
            if e.session_id == sid
        ]
        assert any(new == "degraded" for _, new in seq), f"{sid} never degraded"
        recovered = seq.index(("degraded", "cold_start"))
        assert ("cold_start", "running") in seq[recovered:], f"{sid} never recovered"
    print(f"\nall {len(FAULTS)} faulted sessions recovered "
          "(degraded -> cold_start -> running)")

    # The pump drains a faulted session before its chip comes back up,
    # so it detects exactly what the same vehicle run serially does.
    serial = FleetService()
    for spec in specs:
        if spec.vehicle_id in FAULTS:
            reference_session = serial.add_vehicle(spec)
            reference_session.run_serial()
            assert (
                service.sessions[spec.vehicle_id].blink_times_s
                == reference_session.blink_times_s
            ), spec.vehicle_id
    print("faulted sessions match their serial runs exactly")

    # A clean fleet session is bit-identical to the single-session
    # pipeline: the same device -> SPI -> driver -> detector loop run the
    # plain way (cf. examples/realtime_device_stream.py), no scheduler.
    for sid in ("v00", "v03"):
        frames = service.traces[sid].frames
        device = UwbRadarDevice(frame_source=frames)
        driver = XepDriver(SpiBus(device), n_bins=frames.shape[1])
        driver.probe()
        driver.configure(frame_rate_div=4, tx_power=0xFF)
        driver.start()
        detector = RealTimeBlinkDetector(frame_rate_hz=25.0)
        for _, frame in FrameStream(driver, device, n_frames=frames.shape[0]):
            detector.process_frame(frame)
        detector.finish()
        reference = [e.time_s for e in detector.events]
        assert service.sessions[sid].blink_times_s == reference, sid
    print("clean sessions match the single-session pipeline exactly")

    print("\naccuracy vs ground truth (paper metric):")
    for sid, trace in service.traces.items():
        score = score_blink_detection(
            trace.blink_times_s, service.sessions[sid].blink_times_s
        )
        print(f"  {sid}: {score.accuracy:.3f}" + ("  (faulted)" if sid in FAULTS else ""))

    snap = service.metrics_snapshot()
    counters, latency = snap["counters"], snap["histograms"]["fleet.latency_s"]
    assert counters["fleet.restarts"] >= len(FAULTS)
    assert counters["fleet.dropped_fifo"] > 0
    print("\nfleet metrics snapshot:")
    print(f"  frames processed : {counters['fleet.frames_processed']}")
    print(f"  blinks           : {counters['fleet.blinks']}")
    print(f"  restarts         : {counters['fleet.restarts']}")
    print(f"  fifo drops       : {counters['fleet.dropped_fifo']}")
    print(f"  queue drops      : {counters.get('fleet.dropped_queue', 0)}")
    print(
        f"  latency p50/p95/p99 : {latency['p50'] * 1e3:.1f} / "
        f"{latency['p95'] * 1e3:.1f} / {latency['p99'] * 1e3:.1f} ms"
    )
    print(f"  throughput       : {snap['gauges']['fleet.throughput_fps']:.0f} frames/s")


if __name__ == "__main__":
    main()
