"""Record → replay equivalence: the detector cannot tell disk from live."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import BlinkRadar
from repro.eval.runner import replay_session, run_session
from repro.hardware import FrameStream, SpiBus, UwbRadarDevice, XepDriver
from repro.physio import ParticipantProfile
from repro.sim import Scenario, simulate
from repro.store import Recorder, ReplaySource, TraceReader, write_trace


def session_scenario():
    return Scenario(
        participant=ParticipantProfile("REPLAY"),
        duration_s=8.0,
        road="parked",
        state="awake",
        allow_posture_shifts=False,
    )


class TestRecorder:
    def test_tee_passes_frames_through_unchanged(self, short_trace, tmp_path):
        path = tmp_path / "tee.rst"
        with Recorder(
            path,
            n_bins=short_trace.n_bins,
            frame_rate_hz=short_trace.frame_rate_hz,
            dtype=short_trace.frames.dtype,
        ) as recorder:
            seen = [
                frame
                for _stamp, frame in recorder.tee(
                    zip(short_trace.timestamps_s, short_trace.frames)
                )
            ]
        assert np.array_equal(np.stack(seen), short_trace.frames)
        with TraceReader(path) as reader:
            assert np.array_equal(reader.frames, short_trace.frames)
            assert np.array_equal(reader.timestamps(), short_trace.timestamps_s)

    def test_consumer_crash_preserves_consumed_frames(self, short_trace, tmp_path):
        # Writes happen before the yield, so every frame the consumer
        # processed is on disk even when the consumer dies mid-stream.
        path = tmp_path / "crash.rst"
        recorder = Recorder(
            path,
            n_bins=short_trace.n_bins,
            frame_rate_hz=short_trace.frame_rate_hz,
            dtype=short_trace.frames.dtype,
            chunk_frames=16,
        )
        consumed = 0
        with pytest.raises(RuntimeError, match="consumer died"):
            for _stamp, _frame in recorder.tee(
                zip(short_trace.timestamps_s, short_trace.frames)
            ):
                consumed += 1
                if consumed == 50:
                    raise RuntimeError("consumer died")
        recorder.close(finalize=False)
        with TraceReader(path, recover=True) as reader:
            assert reader.n_frames >= consumed
            assert np.array_equal(
                reader.frames[:consumed], short_trace.frames[:consumed]
            )

    def test_device_stream_recording_replays_identically(self, tmp_path):
        # The full acceptance loop: emulated chip → SPI driver → live
        # detector, teed to disk; then replay through a fresh detector.
        trace = simulate(session_scenario(), seed=13)
        device = UwbRadarDevice(frame_source=trace.frames)
        driver = XepDriver(SpiBus(device), n_bins=trace.n_bins)
        driver.probe()
        driver.configure()
        driver.start()

        path = tmp_path / "device.rst"
        live = BlinkRadar(frame_rate_hz=25.0)
        stream = FrameStream(driver, device, n_frames=trace.n_frames)
        with Recorder(
            path, n_bins=trace.n_bins, frame_rate_hz=25.0, dtype="complex128"
        ) as recorder:
            for _stamp, frame in recorder.tee(stream):
                live.process_frame(frame)

        replayed = BlinkRadar(frame_rate_hz=25.0)
        with ReplaySource(path) as source:
            for _stamp, frame in source:
                replayed.process_frame(frame)
        assert [e.frame_index for e in replayed.stream_events] == [
            e.frame_index for e in live.stream_events
        ]
        # Bit-exactness of the stored stream, not just event agreement.
        with TraceReader(path) as reader:
            assert reader.header.dtype == np.dtype("<c16")
            first_frames = reader.read(0, 3)
        assert first_frames.dtype == np.complex128


class TestReplaySource:
    def test_array_protocol_matches_frames(self, short_rst, short_trace):
        with ReplaySource(short_rst) as source:
            assert np.array_equal(np.asarray(source), short_trace.frames)
            assert len(source) == short_trace.n_frames

    def test_callable_protocol_and_exhaustion(self, short_rst, short_trace):
        with ReplaySource(short_rst) as source:
            assert np.array_equal(source(0), short_trace.frames[0])
            assert np.array_equal(source(41), short_trace.frames[41])
            with pytest.raises(IndexError):
                source(short_trace.n_frames)

    def test_seek_shifts_every_protocol(self, short_rst, short_trace):
        with ReplaySource(short_rst, start_frame=25) as source:
            assert len(source) == short_trace.n_frames - 25
            assert np.array_equal(source(0), short_trace.frames[25])
            assert np.array_equal(source.frames, short_trace.frames[25:])
            source.seek(40)
            assert np.array_equal(source(0), short_trace.frames[40])

    def test_seek_time(self, short_rst, short_trace):
        with ReplaySource(short_rst) as source:
            source.seek_time(2.0)
            expected = int(np.searchsorted(short_trace.timestamps_s, 2.0))
            assert source.start_frame == expected

    def test_paced_iteration_respects_rate(self, short_rst):
        import time

        with ReplaySource(short_rst, pace=True, speed=2000.0) as source:
            start = time.monotonic()
            n = sum(1 for _ in source)
            elapsed_s = time.monotonic() - start
        # 8 s of recording at 2000x must take at least ~4 ms, and the
        # unpaced path (below) shows the floor is pacing, not I/O.
        assert n > 0 and elapsed_s >= 8.0 / 2000.0 * 0.5

    def test_drives_emulated_device(self, short_rst, short_trace):
        with ReplaySource(short_rst) as source:
            device = UwbRadarDevice(frame_source=source)
            driver = XepDriver(SpiBus(device), n_bins=short_trace.n_bins)
            driver.probe()
            driver.configure()
            driver.start()
            stream = FrameStream(driver, device)
            delivered = sum(1 for _ in stream)
        assert delivered == short_trace.n_frames

    def test_drives_fleet_session(self, short_rst, short_trace):
        from repro.fleet.session import EmulatedSession

        with ReplaySource(short_rst) as source:
            session = EmulatedSession("replay0", source)
            session.start()
            session.run_serial()
            session.close()
        assert session.frames_processed == short_trace.n_frames

    def test_drives_fleet_scheduler(self, short_rst, short_trace):
        # Two sessions replaying the same recording through the pump
        # and the scheduler's workers, each from its own independent cursor.
        from repro.fleet.backend import run_to_completion
        from repro.fleet.scheduler import FleetScheduler
        from repro.fleet.session import EmulatedSession

        with ReplaySource(short_rst) as a, ReplaySource(short_rst) as b:
            sessions = [
                EmulatedSession("replay-a", a),
                EmulatedSession("replay-b", b),
            ]
            run_to_completion(FleetScheduler(workers=2), sessions)
        for session in sessions:
            assert session.frames_processed == short_trace.n_frames


class TestReplaySessionEquivalence:
    def test_replay_session_identical_to_run_session(self, tmp_path):
        # The ISSUE acceptance criterion: a ReplaySource feeding
        # eval.run_session's scoring path produces results identical to
        # the in-memory session — scores, events, waveform.
        scenario = session_scenario()
        live = run_session(scenario, seed=21)
        path = tmp_path / "session.rst"
        write_trace(path, live.trace)

        replayed = replay_session(path)
        assert replayed.score == live.score
        assert [e.frame_index for e in replayed.detection.events] == [
            e.frame_index for e in live.detection.events
        ]
        assert np.array_equal(
            replayed.detection.relative_distance,
            live.detection.relative_distance,
            equal_nan=True,
        )
        assert np.array_equal(
            replayed.detection.selected_bins, live.detection.selected_bins
        )
        assert replayed.scenario is None
        assert np.array_equal(replayed.trace.frames, live.trace.frames)

    def test_replay_session_accepts_open_source(self, tmp_path):
        scenario = session_scenario()
        live = run_session(scenario, seed=22)
        path = tmp_path / "session.rst"
        write_trace(path, live.trace)
        with ReplaySource(path) as source:
            replayed = replay_session(source)
        assert replayed.score == live.score

    def test_seed_recovered_from_metadata(self, tmp_path):
        scenario = session_scenario()
        live = run_session(scenario, seed=23)
        live.trace.metadata["seed"] = 23
        path = tmp_path / "session.rst"
        write_trace(path, live.trace)
        assert replay_session(path).seed == 23
