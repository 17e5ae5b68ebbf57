"""Shard fault paths: SIGKILL a worker.

The loss contract under crash: a killed worker costs only the frames it
took off its ring but never reported — at most one worker tick
(``_TICK_MAX``), however many frames the unpaced producer pushed after
the kill. Those are counted, evented (``where="crash"``), and charged
to the dead shard's sessions only; the dead ring's backlog moves to the
replacement. Sessions on other shards lose nothing, the parent never
deadlocks (``drained`` resolves), the dead shard's sessions are
re-homed onto a fresh worker and keep processing, and ``detach`` still
returns for every session afterwards. A kill while ``detach()`` waits
re-homes the detaching session too, and the replacement answers it;
past the respawn limit a stranded session still detaches, with 0.

Waits for the fleet to drain are on the sessions' completion hooks.
The waits for the supervisor to notice a kill, for a signalled worker
to stop and for ``detach()`` to take its session off the shard poll
with a deadline: they have no event to wait on. None sleeps to win a
race.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.events import FrameDropEvent, StateChangeEvent
from repro.fleet.session import DetectorSession
from repro.shard import fleet as fleet_module
from repro.shard.fleet import _OP_TIMEOUT_S, ShardedFleet, _Record
from repro.shard.worker import _TICK_MAX

_N_BINS = 32
_FPS = 25.0
_N_FRAMES = 500


def _crash_lost(session: DetectorSession) -> int:
    return sum(
        e.n_dropped
        for e in session.events
        if isinstance(e, FrameDropEvent) and e.where == "crash"
    )


def _wait_for(condition, what: str, timeout_s: float = 120.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def _frames(n_frames: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n_frames, _N_BINS)) + 1j * rng.standard_normal((n_frames, _N_BINS))
    ).astype(np.complex64)


def _stopped(pid: int) -> bool:
    """True once a SIGSTOPped process is actually stopped (``/proc`` state T)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    return stat[stat.rindex(")") + 2] == "T"


class _Stream:
    """4 sessions over a 2-shard fleet, fed from seeded traces."""

    def __init__(self) -> None:
        rng = np.random.default_rng(13)
        self.sids = [f"c{i}" for i in range(4)]
        self.traces = {
            sid: (
                rng.standard_normal((_N_FRAMES, _N_BINS))
                + 1j * rng.standard_normal((_N_FRAMES, _N_BINS))
            ).astype(np.complex64)
            for sid in self.sids
        }
        self.fleet = ShardedFleet(workers=2, queue_depth=4096, slot_bins=_N_BINS)
        # The sessions count their own losses; sharing the fleet's
        # registry, as the gateway's sessions do, puts them on /metrics.
        self.sessions = {
            sid: DetectorSession(
                sid, n_bins=_N_BINS, frame_rate_hz=_FPS, metrics=self.fleet.metrics
            )
            for sid in self.sids
        }
        self.accepted = {sid: 0 for sid in self.sids}
        self.completed = threading.Event()
        self.fleet.start()
        for session in self.sessions.values():
            session.start()
            self.fleet.attach(session, on_complete=self.completed.set)
        # The shard with the lowest index is the victim.
        victim, victim_sids = min(self.fleet.shards().items())
        self.victim = victim
        self.victim_sids = sorted(victim_sids)
        self.victim_pid = self.fleet.shard_pid(victim)

    def submit(self, k: int) -> None:
        for sid, session in self.sessions.items():
            item = (self.traces[sid][k], k / _FPS)
            if self.fleet.submit(sid, item):
                self.accepted[sid] += 1

    def wait_idle(self, what: str, timeout_s: float = 120.0) -> None:
        """Wait on the completion hooks until every session is drained."""
        while True:
            self.completed.clear()
            if self.fleet.idle():
                return
            assert self.completed.wait(timeout_s), what

    def kill_victim(self) -> None:
        os.kill(self.victim_pid, signal.SIGKILL)

    def crashes(self) -> float:
        return self.fleet.metrics.counter("fleet.shard_crashes").value

    def close(self) -> None:
        for sid in self.sids:
            try:
                self.fleet.detach(sid)
            except KeyError:
                pass
        self.fleet.stop()
        for session in self.sessions.values():
            session.close()


@pytest.fixture(scope="module")
def crashed():
    """SIGKILL one shard mid-stream with the producer unpaced, drain,
    and hand the post-mortem state to the assertions."""
    stream = _Stream()
    for k in range(_N_FRAMES):
        if k == _N_FRAMES // 3:
            stream.kill_victim()
        stream.submit(k)
    stream.wait_idle("fleet deadlocked after worker crash")
    yield stream
    stream.close()


@pytest.fixture(scope="module")
def rehomed():
    """Stream half, kill a shard once idle, wait until the supervisor has
    counted the crash, then stream the rest."""
    stream = _Stream()
    half = _N_FRAMES // 2
    for k in range(half):
        stream.submit(k)
    stream.wait_idle("fleet never drained before the kill")
    before = {sid: stream.sessions[sid].frames_processed for sid in stream.victim_sids}
    stream.kill_victim()
    _wait_for(lambda: stream.crashes() == 1, "crash never detected")
    for k in range(half, _N_FRAMES):
        stream.submit(k)
    stream.wait_idle("fleet deadlocked after re-home")
    stream.processed_before_kill = before
    yield stream
    stream.close()


class TestCrashRecovery:
    def test_exactly_one_crash_counted(self, crashed):
        assert crashed.crashes() == 1

    def test_victim_shard_homed_sessions(self, crashed):
        # The kill must actually have hit loaded shards, or every other
        # assertion here is vacuous.
        assert len(crashed.victim_sids) == 2

    def test_survivor_sessions_lose_nothing(self, crashed):
        for sid, session in crashed.sessions.items():
            if sid in crashed.victim_sids:
                continue
            assert _crash_lost(session) == 0
            assert session.frames_processed == crashed.accepted[sid]

    def test_loss_bounded_to_dead_shards_in_flight(self, crashed):
        # Bounded by the kill (one unreported tick), not by the ring:
        # frames pushed after the kill wait in the dead ring and move.
        for sid in crashed.victim_sids:
            session = crashed.sessions[sid]
            lost = _crash_lost(session)
            assert lost <= _TICK_MAX
            assert session.frames_processed + lost == crashed.accepted[sid]

    def test_rehomed_sessions_resume_processing(self, rehomed):
        homes = rehomed.fleet.shards()
        assert rehomed.victim not in homes
        for sid in rehomed.victim_sids:
            home = next(idx for idx, sids in homes.items() if sid in sids)
            assert home != rehomed.victim
            session = rehomed.sessions[sid]
            # Nothing was in flight at the kill, so nothing is lost, and
            # the replacement processed the second half of the stream.
            assert _crash_lost(session) == 0
            assert session.frames_processed == rehomed.accepted[sid]
            assert session.frames_processed > rehomed.processed_before_kill[sid]

    def test_rehomed_sessions_restart_cold(self, rehomed):
        """A replacement worker builds fresh detectors: a re-homed
        session that was RUNNING re-enters COLD_START at the re-home,
        stamped at its newest processed frame, and its state log keeps
        chaining through it."""
        killed_at_s = (_N_FRAMES // 2 - 1) / _FPS
        for sid in rehomed.victim_sids:
            states = [
                (e.time_s, e.old_state, e.new_state)
                for e in rehomed.sessions[sid].events
                if isinstance(e, StateChangeEvent)
            ]
            assert (killed_at_s, "running", "cold_start") in states
            assert all(a[2] == b[1] for a, b in zip(states, states[1:])), states

    def test_fleet_loss_counter_matches_events(self, crashed):
        total = sum(_crash_lost(s) for s in crashed.sessions.values())
        assert crashed.fleet.metrics.counter("fleet.dropped_crash").value == total

    def test_drained_reports_true_for_all_sessions(self, crashed):
        for sid in crashed.sessions:
            assert crashed.fleet.drained(sid)

    def test_health_names_the_crash_loss(self, crashed):
        for session in crashed.sessions.values():
            assert session.health()["dropped_crash"] == _crash_lost(session)

    def test_replaced_shard_leaves_the_rss_family(self, crashed):
        # Every live shard has reported since the re-home (the
        # replacement worked off the carried backlog); the dead one's
        # series went with it.
        text = crashed.fleet.metrics.render_prometheus()
        assert f'repro_shard_rss_bytes{{shard="{crashed.victim}"}}' not in text
        for shard in crashed.fleet.shards():
            gauge = crashed.fleet.metrics.gauge(f"shard.{shard}.rss_bytes")
            assert gauge.value > 0
            assert f'repro_shard_rss_bytes{{shard="{shard}"}}' in text

    def test_ring_gauge_is_each_live_ring_high_water_mark(self, crashed):
        # Every live ring was last pushed to before its shard's last
        # report, which set the gauge; the dead ring's series left.
        text = crashed.fleet.metrics.render_prometheus()
        assert f'repro_shard_ring_bytes{{shard="{crashed.victim}"}}' not in text
        with crashed.fleet._cond:
            high_water = {w.shard_index: w.ring.high_water for w in crashed.fleet._pool}
        for shard, written in high_water.items():
            assert crashed.fleet.metrics.gauge(f"shard.{shard}.ring_bytes").value == written
            assert f'repro_shard_ring_bytes{{shard="{shard}"}} {written}' in text.splitlines()


def test_settled_crash_loss_reaches_health_and_metrics():
    """A crash settlement charges the session through its own ``_emit``.

    The settlement reads only the parent-side ledger, so a fleet that
    never spawned a worker can charge a synthetic loss of 3 frames.
    """
    fleet = ShardedFleet(workers=1, slot_bins=_N_BINS)
    session = DetectorSession("h0", n_bins=_N_BINS, frame_rate_hz=_FPS, metrics=fleet.metrics)
    session.start()
    with fleet._cond:
        fleet._settle([_Record(session, 0, None, None, accepted=10, consumed=7)], {})
    assert session.health()["dropped_crash"] == session.dropped_crash == 3
    assert _crash_lost(session) == 3
    assert fleet.metrics.counter("fleet.dropped_crash").value == 3
    session.close()


def test_a_kill_mid_detach_rehomes_the_session_and_the_replacement_answers():
    """A shard SIGKILLed while ``detach()`` waits on it.

    The worker is stopped before any frame reaches its ring, so its whole
    backlog is still on the dead ring at the kill: the replacement takes
    it, processes it, flushes the session and answers the detach, and
    nothing is lost.
    """
    fleet = ShardedFleet(workers=1, queue_depth=1024, slot_bins=_N_BINS)
    session = DetectorSession("d0", n_bins=_N_BINS, frame_rate_hz=_FPS, metrics=fleet.metrics)
    fleet.start()
    try:
        session.start()
        fleet.attach(session)
        pid = fleet.shard_pid(0)
        os.kill(pid, signal.SIGSTOP)
        _wait_for(lambda: _stopped(pid), "the worker never stopped")
        accepted = sum(
            fleet.submit("d0", (frame, k / _FPS))
            for k, frame in enumerate(_frames(_N_FRAMES, seed=17))
        )
        answers: list[int] = []
        detacher = threading.Thread(target=lambda: answers.append(fleet.detach("d0")))
        detacher.start()
        # Off its shard's list: detach() has begun, so the kill lands mid-detach.
        _wait_for(lambda: fleet.shards()[0] == [], "detach() never began")
        os.kill(pid, signal.SIGKILL)
        detacher.join(_OP_TIMEOUT_S + 10.0)
        assert not detacher.is_alive(), "detach() never returned"

        assert answers == [0]
        assert fleet.metrics.counter("fleet.shard_crashes").value == 1
        assert session.frames_processed + session.dropped_crash == accepted == _N_FRAMES
        assert session.frames_processed == _N_FRAMES  # every frame was carried
    finally:
        fleet.stop()
        session.close()


def test_a_session_the_respawn_backstop_strands_detaches_and_is_freed(
    monkeypatch, refcount_only
):
    """Past the respawn limit the dead shard is not replaced: its session
    reads drained, refuses frames, and detaches with 0, after which the
    fleet holds no reference to it."""
    monkeypatch.setattr(fleet_module, "_MAX_RESPAWNS", 0)
    fleet = ShardedFleet(workers=1, slot_bins=_N_BINS)
    frames = _frames(20, seed=19)
    fleet.start()
    try:
        session = DetectorSession("b0", n_bins=_N_BINS, frame_rate_hz=_FPS, metrics=fleet.metrics)
        session.start()
        fleet.attach(session)
        accepted = sum(fleet.submit("b0", (frame, k / _FPS)) for k, frame in enumerate(frames))
        os.kill(fleet.shard_pid(0), signal.SIGKILL)
        _wait_for(lambda: fleet.shards() == {}, "the dead shard was never given up")

        assert fleet.drained("b0")
        assert session.frames_processed + session.dropped_crash == accepted
        with pytest.raises(KeyError):
            fleet.submit("b0", (frames[0], 1.0))
        refs = [weakref.ref(session), weakref.ref(session.detector)]
        assert fleet.detach("b0") == 0
        with pytest.raises(KeyError):
            fleet.drained("b0")  # let go
        del session
        assert [ref() for ref in refs] == [None, None]
    finally:
        fleet.stop()
