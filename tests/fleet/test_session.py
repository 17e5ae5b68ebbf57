"""EmulatedSession and DetectorSession: lifecycle, fault recovery, frame
accounting, and equivalence with the offline pipeline."""

import weakref

import numpy as np
import pytest

from repro.core.pipeline import BlinkRadar
from repro.core.realtime import RealTimeBlinkDetector
from repro.eval.metrics import score_blink_detection
from repro.fleet import (
    BlinkEvent,
    DetectorSession,
    DrowsyAlertEvent,
    EmulatedSession,
    FaultEvent,
    RestartEvent,
    SessionConfig,
    SessionState,
    SpiFaultInjector,
    StateChangeEvent,
)
from repro.hardware.device import UwbRadarDevice
from repro.hardware.driver import FrameStream, XepDriver
from repro.hardware.spi import SpiBus

FRAME_RATE = 25.0  # div 4

# Wire-transaction cost of startup and of one streamed frame (see
# repro.fleet.service); used to aim injected faults at a stream time.
TX_STARTUP = 5
TX_PER_FRAME = 7


def fault_wire_factory(at_s: float, burst: int):
    fault_tx = TX_STARTUP + TX_PER_FRAME * int(at_s * FRAME_RATE)
    return lambda device: SpiFaultInjector(device, fault_at=(fault_tx,), burst=burst)


def transitions(session):
    return [
        (e.old_state, e.new_state)
        for e in session.events
        if isinstance(e, StateChangeEvent)
    ]


class TestCleanLifecycle:
    def test_serial_run_walks_the_state_machine(self, fleet_trace):
        session = EmulatedSession("s0", fleet_trace.frames)
        assert session.state is SessionState.INIT
        session.run_serial()
        assert transitions(session) == [
            ("init", "cold_start"),
            ("cold_start", "running"),
            ("running", "stopped"),
        ]
        assert not session.active

    def test_clean_run_processes_every_world_frame(self, fleet_trace):
        session = EmulatedSession("s0", fleet_trace.frames)
        session.run_serial()
        n_world = fleet_trace.frames.shape[0]
        assert session.frames_processed == n_world
        assert session.health()["dropped_fifo"] == 0
        assert session.health()["dropped_queue"] == 0

    def test_blinks_match_single_session_pipeline_exactly(self, fleet_trace):
        """The session reports the same blinks, at the same apex times,
        as the plain device -> driver -> detector loop on the same world
        (the single-session pipeline of examples/realtime_device_stream)."""
        session = EmulatedSession("eq", fleet_trace.frames)
        session.run_serial()

        frames = fleet_trace.frames
        device = UwbRadarDevice(frame_source=frames)
        driver = XepDriver(SpiBus(device), n_bins=frames.shape[1])
        driver.configure(frame_rate_div=4, tx_power=0xFF)
        driver.start()
        detector = RealTimeBlinkDetector(frame_rate_hz=FRAME_RATE)
        for _, frame in FrameStream(driver, device, n_frames=frames.shape[0]):
            detector.process_frame(frame)
        detector.finish()

        assert session.blink_times_s == [e.time_s for e in detector.events]
        assert len(session.blink_times_s) > 0  # the comparison is not vacuous

    def test_blinks_close_to_offline_float_pipeline(self, fleet_trace):
        """Against the offline pipeline on the *raw float* frames the only
        difference is the chip's int16 quantisation, so detection must
        still score perfectly within the paper's matching tolerance."""
        session = EmulatedSession("eq", fleet_trace.frames)
        session.run_serial()
        offline = BlinkRadar(frame_rate_hz=FRAME_RATE).detect(fleet_trace.frames)
        score = score_blink_detection(list(offline.event_times_s), session.blink_times_s)
        assert score.f1 == 1.0

    def test_health_snapshot_keys(self, fleet_trace):
        session = EmulatedSession("s0", fleet_trace.frames)
        session.run_serial()
        health = session.health()
        assert health["state"] == "stopped"
        assert health["time_s"] == pytest.approx(fleet_trace.frames.shape[0] / FRAME_RATE)
        assert health["frames_world"] == fleet_trace.frames.shape[0]
        assert health["blinks"] == len(session.blink_events)
        assert health["restarts"] == 0

    def test_double_start_rejected(self, fleet_trace):
        session = EmulatedSession("s0", fleet_trace.frames)
        session.start()
        with pytest.raises(RuntimeError):
            session.start()


class TestFaultRecovery:
    def test_recovers_through_degraded_to_running(self, fleet_trace):
        session = EmulatedSession(
            "flt", fleet_trace.frames, wire_factory=fault_wire_factory(4.0, burst=4)
        )
        session.run_serial()
        seq = transitions(session)
        assert ("running", "degraded") in seq  # fault landed mid-stream
        assert ("degraded", "cold_start") in seq
        # The post-recovery cold start completes: RUNNING is re-entered
        # after the DEGRADED spell.
        recovered_at = seq.index(("degraded", "cold_start"))
        assert ("cold_start", "running") in seq[recovered_at:]
        assert session.health()["state"] == "stopped"

    def test_restart_event_counts_attempts(self, fleet_trace):
        # Burst of 4: the poll fault consumes one corrupted transaction,
        # then three reset attempts fail before the fourth succeeds.
        session = EmulatedSession(
            "flt", fleet_trace.frames, wire_factory=fault_wire_factory(4.0, burst=4)
        )
        session.run_serial()
        restarts = [e for e in session.events if isinstance(e, RestartEvent)]
        assert [e.reason for e in restarts] == ["spi_fault"]
        assert restarts[0].attempts == 4
        assert session.restarts == 1

    def test_every_world_frame_is_accounted_for(self, fleet_trace):
        """processed + fifo-dropped == world frames: losses are counted,
        never silent, and resets never replay the world."""
        session = EmulatedSession(
            "flt", fleet_trace.frames, wire_factory=fault_wire_factory(4.0, burst=4)
        )
        session.run_serial()
        n_world = fleet_trace.frames.shape[0]
        dropped = session.health()["dropped_fifo"]
        assert dropped > 0  # the DEGRADED spell really lost frames
        assert session.frames_processed + dropped == n_world
        assert session.frames_processed < n_world

    def test_exhausted_burst_is_terminal(self, fleet_trace):
        config = SessionConfig(max_recovery_attempts=2)
        session = EmulatedSession(
            "dead",
            fleet_trace.frames,
            config=config,
            wire_factory=fault_wire_factory(4.0, burst=30),
        )
        session.run_serial()
        terminal = [e for e in session.events if isinstance(e, FaultEvent) and e.terminal]
        assert len(terminal) == 1
        assert session.state is SessionState.STOPPED
        assert session.restarts == 0  # it never made it back
        # It died mid-world, well before the source ran dry.
        assert session.health()["frames_world"] < fleet_trace.frames.shape[0]


class TestControlRequests:
    def _drive(self, session, n):
        done = 0
        while done < n and session.active and not session.draining:
            item = session.produce()
            if item is not None:
                session.process(item)
                done += 1

    def test_manual_restart(self, fleet_trace):
        session = EmulatedSession("op", fleet_trace.frames)
        session.start()
        self._drive(session, 60)
        session.request_restart()
        while session.produce() is not None:
            pass  # the restart is due on the next produce
        assert session.recovery_due
        session.recover()
        assert not session.recovery_due
        restarts = [e for e in session.events if isinstance(e, RestartEvent)]
        assert [e.reason for e in restarts] == ["manual"]
        assert session.state is SessionState.COLD_START

    def test_request_stop(self, fleet_trace):
        session = EmulatedSession("op", fleet_trace.frames)
        session.start()
        self._drive(session, 10)
        session.request_stop()
        assert session.produce() is None
        assert session.state is SessionState.STOPPED
        assert not session.active


class TestDrowsyAlerting:
    def _session(self, frames):
        config = SessionConfig(drowsy_rate_threshold_bpm=30.0, drowsy_window_s=4.0)
        return EmulatedSession("drz", frames, config=config)

    def test_high_rate_raises_one_alert_per_window(self, fleet_trace):
        session = self._session(fleet_trace.frames)
        # 3 blinks in a 4 s window = 45/min, past the 30/min threshold.
        for t in [4.0, 4.5, 5.0, 5.5, 6.0, 6.5]:
            session._emit(BlinkEvent("drz", t, int(t * FRAME_RATE), 1.0))
        alerts = [e for e in session.events if isinstance(e, DrowsyAlertEvent)]
        assert len(alerts) == 1  # refractory: one alert per window
        assert alerts[0].rate_bpm >= 30.0
        assert alerts[0].window_s == 4.0

    def test_no_alert_before_window_fills(self, fleet_trace):
        session = self._session(fleet_trace.frames)
        for t in [0.5, 1.0, 1.5, 2.0]:  # early burst, window not yet filled
            session._emit(BlinkEvent("drz", t, int(t * FRAME_RATE), 1.0))
        assert not [e for e in session.events if isinstance(e, DrowsyAlertEvent)]


class TestValidation:
    def test_frames_must_be_2d(self):
        with pytest.raises(ValueError):
            EmulatedSession("bad", np.zeros(16, dtype=complex))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(recovery_backoff_frames=0)
        with pytest.raises(ValueError):
            SessionConfig(max_recovery_attempts=0)
        with pytest.raises(ValueError):
            SessionConfig(fifo_frames=0)


class TestLifetime:
    """A finished session is freed by reference counting alone: nothing it
    owns (chip, driver, stream, detector) leads back to it."""

    def test_closed_ingest_session_is_freed(self, refcount_only):
        session = DetectorSession("free", n_bins=16, frame_rate_hz=FRAME_RATE)
        session.start()
        frame = np.ones(16, dtype=np.complex64)
        session.process_batch([(frame, k / FRAME_RATE) for k in range(60)])
        session.close()
        refs = [weakref.ref(session), weakref.ref(session.detector)]
        del session
        assert [ref() for ref in refs] == [None, None]

    def test_serial_session_is_freed(self, fleet_trace, refcount_only):
        # The chip samples this session's world: the pumped path.
        session = EmulatedSession("free", fleet_trace.frames)
        session.run_serial()
        refs = [weakref.ref(session), weakref.ref(session.detector)]
        del session
        assert [ref() for ref in refs] == [None, None]
