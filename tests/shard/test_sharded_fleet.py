"""ShardedFleet beyond the shared contract: placement, slot size, bit-identity.

The serve surface both backends share (errors, drained/idle, detach,
start/stop, shed conservation and the drop-newest deviation) is pinned
once for both in ``tests/fleet/test_backend_contract.py``. What stays
here is sharded-only, plus the acceptance bar: *bit-identical* blink
events against the threaded backend on the same frames, because the
workers run the exact same detector code over the exact same bytes (the
ring's checksummed ``.rst`` chunk framing). Waits are on the session's
completion hook, never a timed poll.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.fleet.events import StateChangeEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import DetectorSession, SessionState
from repro.shard.fleet import ShardedFleet
from repro.shard.messages import ShardReport
from repro.shard.worker import _TICK_MAX

_N_BINS = 32
_FPS = 25.0
#: The tick bound the crash contract states (docs/fleet.md): a shard
#: ships results, and a kill can cost frames, this many at a time.
_DOCUMENTED_TICK = 64


def _session(session_id: str, metrics=None, n_bins: int = _N_BINS) -> DetectorSession:
    session = DetectorSession(
        session_id, n_bins=n_bins, frame_rate_hz=_FPS, metrics=metrics
    )
    session.start()
    return session


def _wait_drained(backend, session_id: str, completed: threading.Event) -> None:
    """Wait on the session's completion hook until it is drained."""
    while True:
        completed.clear()
        if backend.drained(session_id):
            return
        assert completed.wait(timeout=60.0), f"{session_id} never drained"


@pytest.fixture(scope="module")
def fleet():
    """One warm 2-shard fleet shared by the tests (worker start-up costs
    seconds; the tests attach/detach their own sessions)."""
    fleet = ShardedFleet(workers=2, queue_depth=1024, slot_bins=256)
    fleet.start()
    yield fleet
    fleet.stop()


class TestServeSurfaceParity:
    """The sharded-only rest of the serve surface: shard placement and
    the ring's slot size."""

    def test_oversized_session_rejected_at_attach(self, fleet):
        session = _session("wide", n_bins=512)
        with pytest.raises(ValueError, match="bins"):
            fleet.attach(session)
        session.close()

    def test_sessions_spread_across_shards(self, fleet):
        sessions = [_session(f"spread{i}") for i in range(4)]
        for session in sessions:
            fleet.attach(session)
        try:
            homes = fleet.shards()
            assert sorted(len(v) for v in homes.values()) == [2, 2]
        finally:
            for session in sessions:
                fleet.detach(session.session_id)
                session.close()


class TestReportCadence:
    def test_an_unpaced_burst_completes_tick_by_tick(self, fleet):
        """A burst's results come back one tick at a time, not when the
        whole backlog is done: the completion hook (which the gateway
        turns into ACKs) fires at least once per tick's worth of frames,
        and ``frames_processed`` never moves by more than a tick."""
        assert _TICK_MAX <= _DOCUMENTED_TICK
        n_frames = 1000
        rng = np.random.default_rng(17)
        frames = (
            rng.standard_normal((n_frames, _N_BINS))
            + 1j * rng.standard_normal((n_frames, _N_BINS))
        ).astype(np.complex64)
        session = _session("burst")
        seen: list[int] = []
        completed = threading.Event()

        def on_complete() -> None:
            seen.append(session.frames_processed)
            completed.set()

        fleet.attach(session, on_complete=on_complete)
        try:
            for k in range(n_frames):
                assert fleet.submit("burst", (frames[k], k / _FPS))
            _wait_drained(fleet, "burst", completed)
        finally:
            fleet.detach("burst")
            session.close()
        assert seen[-1] == n_frames
        assert len(seen) >= n_frames / _TICK_MAX
        steps = np.diff([0, *seen])
        assert steps.max() <= _TICK_MAX


class TestStateReplay:
    def test_worker_state_change_replays_through_the_mirror(self, fleet):
        """A worker's cold_start → running is the detector's own cycle:
        it moves a COLD_START parent to RUNNING, and leaves a DEGRADED
        parent DEGRADED, a state only the session's owner leaves."""
        cold, degraded = _session("mirror_cold"), _session("mirror_degraded")
        degraded._transition(SessionState.DEGRADED)
        for session in (cold, degraded):
            fleet.attach(session)
        try:
            report = ShardReport(
                events=[
                    StateChangeEvent(session.session_id, 1.0, "cold_start", "running")
                    for session in (cold, degraded)
                ]
            )
            fleet._apply_report(fleet._pool[0], report)
            assert cold.state is SessionState.RUNNING
            assert degraded.state is SessionState.DEGRADED
        finally:
            for session in (cold, degraded):
                fleet.detach(session.session_id)
                session.close()


class TestBitIdentity:
    @pytest.mark.parametrize("trace_name", ["lab_trace", "drowsy_trace"])
    def test_blink_events_identical_to_threaded(self, fleet, trace_name, request):
        """The acceptance gate: same frames, same events, bit for bit.

        Golden realisations (seeded simulations, the same traces the
        scalar-path goldens were captured from) stream through both
        backends; every blink's frame index, apex time and prominence
        must match exactly.
        """
        trace = request.getfixturevalue(trace_name)
        frames = trace.frames[:500]

        def run_threaded():
            metrics = MetricsRegistry()
            scheduler = FleetScheduler(workers=2, metrics=metrics)
            scheduler.start()
            session = _session("golden", metrics, n_bins=trace.n_bins)
            completed = threading.Event()
            scheduler.attach(session, on_complete=completed.set)
            for k in range(len(frames)):
                assert scheduler.submit(
                    "golden", (frames[k], k / trace.frame_rate_hz)
                )
            _wait_drained(scheduler, "golden", completed)
            scheduler.detach("golden")
            scheduler.stop()
            # Snapshot *after* close: close() flushes the detector's
            # pending blink, which sharded detach performs worker-side.
            session.close()
            return list(session.blink_events)

        def run_sharded():
            session = _session("golden", fleet.metrics, n_bins=trace.n_bins)
            completed = threading.Event()
            fleet.attach(session, on_complete=completed.set)
            for k in range(len(frames)):
                assert fleet.submit(
                    "golden", (frames[k], k / trace.frame_rate_hz)
                )
            _wait_drained(fleet, "golden", completed)
            fleet.detach("golden")
            events = list(session.blink_events)
            session.close()
            return events

        threaded = run_threaded()
        sharded = run_sharded()
        assert [(e.frame_index, e.time_s, e.prominence) for e in sharded] == [
            (e.frame_index, e.time_s, e.prominence) for e in threaded
        ]
        assert len(threaded) > 0, "trace produced no blinks: gate is vacuous"
