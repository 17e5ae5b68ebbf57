"""Threaded serve mode beyond the shared contract, and the served session.

The serve surface both backends share (attach/detach, non-blocking
submit, drained/idle, start/stop, shed accounting) is pinned once for
both in ``test_backend_contract.py``. What stays here is threaded-only:
many producer threads submitting at once. Waits are on the completion
hook, never a timed poll.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.fleet.session as session_module
from repro.core.realtime import RealTimeBlinkDetector
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import DetectorSession


def _ingest_session(session_id: str, metrics=None, n_bins: int = 16):
    session = DetectorSession(
        session_id, n_bins=n_bins, frame_rate_hz=25.0, metrics=metrics
    )
    session.start()
    return session


def _frames(session, count: int, start: int = 0):
    rng = np.random.default_rng(5)
    for k in range(start, start + count):
        frame = (rng.standard_normal(session.n_bins) + 1j).astype(np.complex64)
        yield frame, k / 25.0


def _wait_drained(scheduler, session_id: str, completed: threading.Event) -> None:
    """Wait on the session's completion hook until it is drained."""
    while True:
        completed.clear()
        if scheduler.drained(session_id):
            return
        assert completed.wait(timeout=60.0), "scheduler never drained"


class TestServeMode:
    def test_submit_is_thread_safe_under_concurrent_producers(self):
        # More workers than cores, switching every few microseconds: a
        # depth gauge written outside the lock would end stale.
        metrics = MetricsRegistry()
        scheduler = FleetScheduler(workers=4, queue_depth=4096, metrics=metrics)
        scheduler.start()
        sessions = [_ingest_session(f"t{i}", metrics) for i in range(3)]
        completed = {s.session_id: threading.Event() for s in sessions}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for session in sessions:
                scheduler.attach(session, on_complete=completed[session.session_id].set)

            def producer(session):
                for item in _frames(session, 100):
                    scheduler.submit(session.session_id, item)

            threads = [threading.Thread(target=producer, args=(s,)) for s in sessions]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for session in sessions:
                _wait_drained(scheduler, session.session_id, completed[session.session_id])
                assert session.frames_processed == 100
                assert metrics.gauge(f"session.{session.session_id}.queue_depth").value == 0
        finally:
            sys.setswitchinterval(interval)
            scheduler.stop()
            for session in sessions:
                session.close()


class TestIngestSession:
    """The served :class:`DetectorSession`, built from declared geometry."""

    def test_declared_rate_wins_over_register_quantisation(self):
        session = DetectorSession("r0", n_bins=8, frame_rate_hz=17.3)
        assert session.frame_rate_hz == 17.3
        session.close()

    def test_builds_the_detector_and_no_hardware(self, monkeypatch):
        def no_hardware(*args, **kwargs):
            raise AssertionError("a served session built emulated hardware")

        for name in ("UwbRadarDevice", "SpiBus", "XepDriver", "FrameStream"):
            monkeypatch.setattr(session_module, name, no_hardware)
        session = _ingest_session("hw0")
        assert isinstance(session.detector, RealTimeBlinkDetector)
        session.process_batch(list(_frames(session, 30)))
        session.close()
        assert session.frames_processed == 30

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            DetectorSession("bad", n_bins=0, frame_rate_hz=25.0)
        with pytest.raises(ValueError):
            DetectorSession("bad", n_bins=8, frame_rate_hz=0.0)
