"""The process-sharded fleet runtime, end to end, in one script.

Three acts. First the same simulated drive streams through the
**threaded** scheduler and the **sharded** fleet — worker processes fed
over shared-memory rings — via the identical serve surface, and every
blink event matches bit for bit: the shard workers run the exact
``process_batch`` path the threads do, just on the other side of a
process boundary. Then a worker is SIGKILLed mid-stream to show the
crash contract: the loss is counted and bounded to the dead shard's
in-flight frames, its sessions are re-homed onto a fresh worker and
keep processing, and sessions on surviving shards lose nothing.
Finally the parent's metrics registry — counted from the events and
batches the workers report — renders the whole run.

Run:
    python examples/sharded_fleet.py
"""

import os
import signal
import time

from repro.fleet.events import FrameDropEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import DetectorSession
from repro.physio import ParticipantProfile
from repro.shard.fleet import ShardedFleet
from repro.sim import Scenario, simulate

N_VEHICLES = 4
DURATION_S = 8.0


def make_trace():
    scenario = Scenario(
        participant=ParticipantProfile("SHD"),
        road="parked",
        state="drowsy",  # frequent blinks: more events to compare
        duration_s=DURATION_S,
        allow_posture_shifts=False,
    )
    return simulate(scenario, seed=21)


def stream(backend, trace, sessions):
    """Push the trace through any serve-surface backend and drain it."""
    for session in sessions:
        session.start()
        backend.attach(session)
    for k in range(trace.n_frames):
        for session in sessions:
            backend.submit(
                session.session_id,
                (trace.frames[k], k / trace.frame_rate_hz),
            )
    while not all(backend.drained(s.session_id) for s in sessions):
        time.sleep(0.005)
    for session in sessions:
        backend.detach(session.session_id)


def blink_tuples(session):
    return [(e.frame_index, e.time_s, e.prominence) for e in session.blink_events]


def act_one_bit_identity(trace):
    print("— act one: threaded vs sharded, same frames —")

    metrics = MetricsRegistry()
    threaded = FleetScheduler(workers=2, metrics=metrics)
    threaded.start()
    t_sessions = [
        DetectorSession(f"v{k}", n_bins=trace.n_bins, frame_rate_hz=trace.frame_rate_hz,
                        metrics=metrics)
        for k in range(N_VEHICLES)
    ]
    stream(threaded, trace, t_sessions)
    threaded.stop()
    # close() flushes each detector's pending blink; the sharded detach
    # already did that worker-side, so close both before comparing.
    for session in t_sessions:
        session.close()

    sharded = ShardedFleet(workers=2, slot_bins=trace.n_bins)
    sharded.start()
    s_sessions = [
        DetectorSession(f"v{k}", n_bins=trace.n_bins, frame_rate_hz=trace.frame_rate_hz,
                        metrics=sharded.metrics)
        for k in range(N_VEHICLES)
    ]
    stream(sharded, trace, s_sessions)
    sharded.stop()

    for t, s in zip(t_sessions, s_sessions):
        assert blink_tuples(t) == blink_tuples(s), t.session_id
        print(f"  {t.session_id}: {len(t.blink_events)} blinks, "
              "bit-identical across backends")
    for session in s_sessions:
        session.close()


def act_two_crash(trace):
    print("\n— act two: SIGKILL one shard mid-stream —")
    fleet = ShardedFleet(workers=4, slot_bins=trace.n_bins)
    fleet.start()
    sessions = [
        DetectorSession(f"c{k}", n_bins=trace.n_bins, frame_rate_hz=trace.frame_rate_hz,
                        metrics=fleet.metrics)
        for k in range(N_VEHICLES)
    ]
    for session in sessions:
        session.start()
        fleet.attach(session)
    victim = fleet.shards()  # shard -> homed session ids, pre-crash
    accepted = {s.session_id: 0 for s in sessions}
    for k in range(trace.n_frames):
        if k == trace.n_frames // 2:
            os.kill(fleet.shard_pid(min(victim)), signal.SIGKILL)
        for session in sessions:
            if fleet.submit(
                session.session_id,
                (trace.frames[k], k / trace.frame_rate_hz),
            ):
                accepted[session.session_id] += 1
    while not fleet.idle():
        time.sleep(0.005)

    crashes = fleet.metrics.counter("fleet.shard_crashes").value
    print(f"  crashes supervised: {crashes:.0f}; "
          f"homes before: {dict(sorted(victim.items()))}")
    print(f"  homes after re-home: {dict(sorted(fleet.shards().items()))}")
    for session in sessions:
        lost = sum(
            e.n_dropped for e in session.events
            if isinstance(e, FrameDropEvent) and e.where == "crash"
        )
        assert session.frames_processed + lost == accepted[session.session_id]
        tag = f"lost {lost} unreported at the kill" if lost else "lossless"
        print(f"  {session.session_id}: processed {session.frames_processed}"
              f"/{accepted[session.session_id]} ({tag})")
    for session in sessions:
        fleet.detach(session.session_id)
    fleet.stop()
    for session in sessions:
        session.close()
    return fleet.metrics


def act_three_metrics(metrics):
    print("\n— act three: one registry spanning every worker process —")
    snap = metrics.as_dict()
    for name in ("fleet.frames_processed", "fleet.blinks", "fleet.shard_crashes",
                 "fleet.dropped_crash"):
        print(f"  {name} = {snap['counters'].get(name, 0):.0f}")
    latency = snap["histograms"]["fleet.latency_s"]
    print(f"  fleet.latency_s p50={latency['p50'] * 1e3:.1f} ms "
          f"p99={latency['p99'] * 1e3:.1f} ms "
          f"(worker-side observations, replayed exactly)")


def main() -> None:
    print(f"simulating a {DURATION_S:.0f} s drowsy drive ...")
    trace = make_trace()
    act_one_bit_identity(trace)
    metrics = act_two_crash(trace)
    act_three_metrics(metrics)


if __name__ == "__main__":
    main()
