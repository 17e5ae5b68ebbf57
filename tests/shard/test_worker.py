"""The shard worker loop, one pass at a time, in-process.

No worker process and no sleeps: the pipe and the ring are driven by
hand, so the interleaving under test is constructed, not raced.
"""

from __future__ import annotations

import math
import multiprocessing
import weakref
from collections import Counter

import numpy as np

from repro.fleet.events import BlinkEvent, DrowsyAlertEvent
from repro.fleet.session import SessionConfig
from repro.shard.messages import AttachMsg, ShardReport
from repro.shard.ring import ShmRing, encode_slot, slot_bytes_for
from repro.shard.worker import _TICK_MAX, _tick, _WorkerState

_N_BINS = 16


class _ParentActsBeforeSnapshot:
    """Ring proxy: the parent's attach-then-push lands the instant before
    the worker snapshots the ring, i.e. after anything the worker did
    earlier in the same pass."""

    def __init__(self, ring: ShmRing, act) -> None:
        self._ring = ring
        self._act = act

    def peek(self, max_items: int):
        if self._act is not None:
            self._act()
            self._act = None
        return self._ring.peek(max_items)

    def advance(self, n: int) -> None:
        self._ring.advance(n)


def test_frames_queued_behind_an_unread_attach_are_routed():
    """The parent sends a session's AttachMsg, then pushes its frames;
    in the worker pass that first sees the frames, the attach is still
    unread in the pipe. The pass must route them to the session, not
    count them unrouted."""
    parent, child = multiprocessing.Pipe()
    ring = ShmRing.create(8, slot_bytes_for(_N_BINS))
    state = _WorkerState()
    frame = np.ones(_N_BINS, dtype=np.complex64)

    def attach_then_push() -> None:
        parent.send(
            AttachMsg(
                session_index=3,
                session_id="s",
                n_bins=_N_BINS,
                frame_rate_hz=25.0,
                config=SessionConfig(),
            )
        )
        for k in range(5):
            assert ring.push(encode_slot(3, 0.0, k / 25.0, frame))

    try:
        consumed = _tick(_ParentActsBeforeSnapshot(ring, attach_then_push), child, state)
        report = state.report()

        assert consumed == 5
        assert report.unrouted == 0
        assert report.consumed == {"s": 5}
        assert sum(n for sid, n, _, _ in report.batches if sid == "s") == 5
        assert ring.size == 0
    finally:
        parent.close()
        child.close()
        ring.close()
        ring.unlink()


def _attach_msg(index: int, sid: str) -> AttachMsg:
    return AttachMsg(
        session_index=index,
        session_id=sid,
        n_bins=_N_BINS,
        frame_rate_hz=25.0,
        config=SessionConfig(),
    )


def _push(ring: ShmRing, index: int, n_frames: int, rng: np.random.Generator) -> None:
    for k in range(n_frames):
        frame = (rng.standard_normal(_N_BINS) + 1j).astype(np.complex64)
        assert ring.push(encode_slot(index, 0.0, k / 25.0, frame))


def test_detach_frees_the_session_and_its_detector(refcount_only):
    """Once the worker's detach returns, nothing in the worker holds the
    session: it and its detector are freed, while a neighbour whose rows
    shared the same fused stage-1 launch keeps running."""
    parent, child = multiprocessing.Pipe()
    ring = ShmRing.create(_TICK_MAX, slot_bytes_for(_N_BINS))
    state = _WorkerState()
    rng = np.random.default_rng(3)
    # Two sessions' rows in one tick: one fused launch over both.
    per_session = _TICK_MAX // 2
    try:
        state.attach(_attach_msg(1, "gone"))
        state.attach(_attach_msg(2, "kept"))
        _push(ring, 1, per_session, rng)
        _push(ring, 2, per_session, rng)
        assert _tick(ring, child, state) == 2 * per_session
        gone = state.by_id["gone"]
        refs = [weakref.ref(gone), weakref.ref(gone.detector)]
        del gone

        report = state.detach("gone", ring, child)

        assert [ref() for ref in refs] == [None, None]
        # The tick's frames went out in the report the detach sent first.
        assert parent.poll(0)
        assert parent.recv().consumed == {"gone": per_session, "kept": per_session}
        assert report.consumed == {}
        assert list(state.by_id) == ["kept"]
        assert list(state.by_index) == [2]
    finally:
        parent.close()
        child.close()
        ring.close()
        ring.unlink()


def test_a_worker_session_ships_blinks_and_never_a_drowsy_alert(drowsy_trace):
    """Drowsy alerts are raised where blinks are counted: on the parent's
    session, whose blink-rate window outlives any worker. A worker-side
    session ships its blinks, and no alert even past a threshold that
    every blink after the first window crosses."""
    parent, child = multiprocessing.Pipe()
    ring = ShmRing.create(_TICK_MAX, slot_bytes_for(drowsy_trace.n_bins))
    state = _WorkerState()
    fps = drowsy_trace.frame_rate_hz
    frames = drowsy_trace.frames[:500]
    eager = SessionConfig(drowsy_rate_threshold_bpm=1.0, drowsy_window_s=4.0)
    shipped = []
    try:
        state.attach(AttachMsg(1, "drz", drowsy_trace.n_bins, fps, eager))
        for start in range(0, len(frames), _TICK_MAX):
            for k in range(start, min(start + _TICK_MAX, len(frames))):
                assert ring.push(encode_slot(1, 0.0, k / fps, frames[k]))
            assert _tick(ring, child, state) > 0
            shipped += state.report().events
    finally:
        parent.close()
        child.close()
        ring.close()
        ring.unlink()
    assert any(isinstance(e, BlinkEvent) and e.time_s >= 4.0 for e in shipped)
    assert not [e for e in shipped if isinstance(e, DrowsyAlertEvent)]


class _RecordingConn:
    """Worker-side pipe end that keeps what the worker sends."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self.sent: list[object] = []

    def poll(self, timeout: float = 0.0) -> bool:
        return self._conn.poll(timeout)

    def recv(self) -> object:
        return self._conn.recv()

    def send(self, msg: object) -> None:
        self.sent.append(msg)


def test_detach_behind_a_backlog_reports_every_tick():
    """A detach queued behind a neighbour's backlog drains it tick by
    tick, and ships each tick's results as it goes: the work of the pass
    that read the detach first, then one report per drain tick, none
    covering more than one tick. Otherwise the neighbour's ACKs stall
    for the whole drain, and a kill mid-drain costs every frame drained
    so far instead of at most one tick."""
    backlog = 3 * _TICK_MAX + 5
    parent, child = multiprocessing.Pipe()
    conn = _RecordingConn(child)
    ring = ShmRing.create(backlog + 8, slot_bytes_for(_N_BINS))
    state = _WorkerState()
    rng = np.random.default_rng(5)
    try:
        state.attach(_attach_msg(1, "gone"))
        state.attach(_attach_msg(2, "kept"))
        _push(ring, 1, 8, rng)
        _push(ring, 2, backlog, rng)
        # The main loop's pass: one tick, then the detach it read.
        worked = _tick(ring, conn, state)
        assert worked == _TICK_MAX

        final = state.detach("gone", ring, conn)

        reports = [msg for msg in conn.sent if isinstance(msg, ShardReport)]
        assert len(reports) == len(conn.sent)
        # The pass's pending report, then one per drain tick.
        assert len(reports) == 1 + math.ceil((backlog + 8 - worked) / _TICK_MAX)
        shipped: Counter[str] = Counter()
        for report in [*reports, final]:
            assert sum(report.consumed.values()) <= _TICK_MAX
            assert sum(n for _, n, _, _ in report.batches) <= _TICK_MAX
            shipped.update(report.consumed)
        assert sum(reports[0].consumed.values()) == worked
        assert shipped == {"gone": 8, "kept": backlog}
        assert ring.size == 0
    finally:
        parent.close()
        child.close()
        ring.close()
        ring.unlink()
