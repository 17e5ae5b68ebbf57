"""One shard: the worker-process loop and its parent-side handle.

The worker process owns a shard of sessions. Its loop is a tick:

1. Snapshot up to a tick's worth of ring slots (``_TICK_MAX``), *then*
   drain the control pipe. The parent sends a session's
   :class:`AttachMsg` before it pushes any of that session's frames, so
   every frame in the snapshot has its attach already in the pipe, and
   the drain reads it before the frame is routed. (Draining first and
   peeking second would let a frame pushed in between arrive ahead of
   its attach.) Detach and stop requests run after the tick's frames.
2. Group the snapshot's frames by session, run **one fused stage-1
   kernel launch** over every session's rows at once (the
   cross-session row-matrix batching of
   :class:`~repro.core.batched.BatchedPipeline`), then run each
   session's stateful walk over its slice via the inherited
   :meth:`~repro.fleet.session.DetectorSession.process_batch` — the same
   code path the threaded scheduler's workers call, which is what makes
   sharded output bit-identical to threaded output.
3. Ship a :class:`~repro.shard.messages.ShardReport` (the sessions'
   events and batches, cumulative consumed counts, the worker's
   resident bytes) after every tick that did work — including each tick
   of a detach's drain — and heartbeat on a fixed cadence while idle.
   Reports go after processing, so the parent's ``drained()`` implies
   results are already applied. The worker counts nothing itself: the
   parent counts each event and batch once, on its own session.

Latency is measured worker-side against the parent's ``perf_counter``
enqueue stamps: both clocks are CLOCK_MONOTONIC on Linux, so the stamps
compare across the process boundary.

:class:`ShardWorker` is the parent-side handle bundling the process, its
ring, and its pipe; :meth:`ShardWorker.close` releases all three.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing.connection import Connection
from typing import Any

import numpy as np

from repro.core.realtime import RealTimeBlinkDetector
from repro.fleet.events import FleetEvent
from repro.fleet.session import SessionState
from repro.gateway.ingest import IngestSession
from repro.shard.messages import (
    AttachMsg,
    BatchRecord,
    DetachAck,
    DetachMsg,
    ReadyMsg,
    ShardReport,
    StopMsg,
    StoppedMsg,
)
from repro.shard.ring import RingFrame, ShmRing

__all__ = ["ShardWorker", "mp_context", "shard_worker_main"]

#: Ring slots drained per tick. A report ships after every tick, so
#: this bounds how long a finished frame's result (and its gateway ACK)
#: waits behind the frames drained with it, the frames a SIGKILL can
#: cost, the per-tick scratch (stacked raw block, denoised block,
#: filter rows) and how long a control message waits behind a backlog.
#: A deeper backlog simply takes several ticks. Chosen by a sweep on a
#: 2-core host (docs/performance.md, "Upload ACK latency and the shard
#: tick"): gateway-upload's ACK p50 is flat from 64 to 256 slots and a
#: quarter below 1,024, throughput falls at 32, and memory falls with
#: the tick; 64 slots, about 10 ms of walk, is the smallest tick on the
#: flat part.
_TICK_MAX = 64

#: Idle heartbeat cadence — the parent treats reports as liveness.
_HEARTBEAT_S = 0.2

#: Idle poll on the control pipe (doubles as the idle sleep).
_IDLE_POLL_S = 0.002


def mp_context() -> Any:
    """The start-method context shard workers use.

    Forkserver with a warmed preload (numpy, the detector stack)
    where the platform offers it — forks are then cheap and never
    inherit the parent's threads — falling back to spawn elsewhere.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(["repro.shard._preload"])
        return ctx
    except ValueError:
        return multiprocessing.get_context("spawn")


class _ShardSession(IngestSession):
    """Worker-side detector session mirroring one parent session.

    Identical to the gateway's :class:`IngestSession` — same
    ``process_batch`` path, same events — except that it counts nothing:
    :meth:`_emit` and :meth:`_record_batch` hand each event and batch to
    the next report, and the parent counts them on its own session. Plus
    the generation bridge: the *parent* owns the produce side (faults,
    restarts, generation bumps), so when stamped generations move past
    this mirror's, it rebuilds its detector exactly as the parent's
    ``_bring_up`` swap would have, and older-generation frames flush as
    stale through the inherited run splitting.
    """

    #: Collects the next report; wired after start, as the bring-up
    #: events (INIT → COLD_START) already happened on the parent session.
    outbox: _WorkerState | None = None

    def _emit(self, event: FleetEvent) -> None:
        if self.outbox is not None:
            self.outbox.events.append(event)

    def _record_batch(self, n_frames: int, latencies: list[float]) -> None:
        if self.outbox is not None:
            self.outbox.batches.append((self.session_id, n_frames, latencies))

    def adopt_generation(self, generation: int) -> None:
        """Mirror a parent-side restart: fresh detector, cold start."""
        with self._lock:
            if generation <= self._generation:
                return
            self._generation = generation
            self.detector = RealTimeBlinkDetector(self.frame_rate_hz, self.config.detector)
            self._state = SessionState.COLD_START

    def flush_final(self) -> None:
        """Flush the pending LEVD event (what close() would detect-flush).

        Lifecycle stamping stays with the parent's own ``close()``; only
        the detector state lives here, so only the detector is flushed.
        """
        detector = self.detector
        if detector is None:
            return
        event = detector.finish()
        if event is not None:
            apex = self._apex_time(self._last_time_s, self._last_det_index, event.frame_index)
            self._on_blink(apex, event.frame_index, event.prominence)


class _WorkerState:
    """Everything the worker loop tracks across ticks."""

    def __init__(self) -> None:
        self.by_index: dict[int, _ShardSession] = {}
        self.by_id: dict[str, _ShardSession] = {}
        self.consumed: dict[str, int] = {}
        #: What the sessions recorded since the last report.
        self.events: list[FleetEvent] = []
        self.batches: list[BatchRecord] = []
        self.unrouted = 0
        #: Detach/stop requests read off the pipe, run after the tick.
        self.requests: deque[DetachMsg | StopMsg] = deque()

    def attach(self, msg: AttachMsg) -> None:
        session = _ShardSession(
            msg.session_id,
            n_bins=msg.n_bins,
            frame_rate_hz=msg.frame_rate_hz,
            config=msg.config,
        )
        session.start()
        session.outbox = self
        self.by_index[msg.session_index] = session
        self.by_id[msg.session_id] = session
        self.consumed.setdefault(msg.session_id, 0)

    def detach(self, session_id: str, ring: ShmRing, conn: Connection) -> ShardReport:
        """Drain the ring, flush the session and forget it; the final report.

        The drain reports as the main loop does: what is pending ships
        before the first drain tick and each tick's work right after it,
        so a detach behind a backlog neither holds back the shard's other
        sessions nor lets a kill cost more than one tick. Once this
        returns the worker holds no reference to the session, so its
        detector is freed with it.
        """
        conn.send(self.report())
        while _tick(ring, conn, self):
            conn.send(self.report())
        session = self.by_id.get(session_id)
        if session is None:
            return self.report()
        session.flush_final()
        # Build the final report *before* deregistering: its state
        # mirror walks ``by_id``.
        final = self.report()
        del self.by_id[session_id]
        self.by_index = {i: s for i, s in self.by_index.items() if s is not session}
        # The parent zeroes its side on detach, so a re-attach of this
        # sid must also restart the worker's cumulative accounting.
        self.consumed.pop(session_id, None)
        return final

    def report(self) -> ShardReport:
        report = ShardReport(
            consumed=dict(self.consumed),
            events=self.events,
            batches=self.batches,
            states={
                sid: (session.generation, session.state.value)
                for sid, session in self.by_id.items()
            },
            unrouted=self.unrouted,
            rss_bytes=_rss_bytes(),
        )
        self.events, self.batches, self.unrouted = [], [], 0
        return report


def _rss_bytes() -> int:
    """This process's resident set in bytes; 0 where there is no ``/proc``.

    One ``os.open``/``read``/``close`` of ``/proc/self/statm``: a few
    microseconds, once per report.
    """
    try:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
    except OSError:
        return 0
    try:
        return int(os.read(fd, 128).split()[1]) * mmap.PAGESIZE
    finally:
        os.close(fd)


def _tick(ring: ShmRing, conn: Connection, state: _WorkerState) -> int:
    """One pass of the worker loop; returns the ring slots consumed.

    The ring snapshot is taken before the control pipe is read (see the
    module docstring): attaches apply at once, so every frame in the
    snapshot routes to its session; detach/stop requests queue on
    ``state.requests`` for the loop to run after the frames.
    """
    ring_frames = ring.peek(_TICK_MAX)
    while conn.poll(0):
        msg = conn.recv()
        if isinstance(msg, AttachMsg):
            state.attach(msg)
        elif isinstance(msg, (DetachMsg, StopMsg)):
            state.requests.append(msg)
    if not ring_frames:
        return 0
    groups: dict[int, list[RingFrame]] = {}
    for rf in ring_frames:
        groups.setdefault(rf.session_index, []).append(rf)
    denoised_of = _fused_stage1(groups, state)
    for index, rfs in groups.items():
        session = state.by_index.get(index)
        if session is None:
            # A frame for a session this shard no longer (or never)
            # homes: consume it loudly, never wedge the ring.
            state.unrouted += len(rfs)
            continue
        session.adopt_generation(max(rf.generation for rf in rfs))
        session.process_batch(
            [(rf.generation, rf.timestamp_s, rf.frame) for rf in rfs],
            enqueued_ats=[rf.enqueued_at for rf in rfs],
            denoised=denoised_of.get(index),
        )
        state.consumed[session.session_id] += len(rfs)
    consumed = len(ring_frames)
    # Drop every shared-memory view before freeing the slots.
    del ring_frames, groups, denoised_of
    ring.advance(consumed)
    return consumed


def _fused_stage1(
    groups: dict[int, list[RingFrame]], state: _WorkerState
) -> dict[int, np.ndarray]:
    """One denoise launch across every session's tick rows, when legal.

    The fast-time cascade is stateless per row, so fusing sessions is
    bit-identical to per-session launches — but only when every row
    agrees on geometry, dtype and detector config. Mixed ticks simply
    return no slices and each ``process_batch`` launches its own kernel.
    """
    fusable: list[tuple[int, _ShardSession, list[RingFrame]]] = []
    for index, rfs in groups.items():
        session = state.by_index.get(index)
        if session is None or session.detector is None:
            return {}
        fusable.append((index, session, rfs))
    if len(fusable) < 2:
        return {}
    first = fusable[0][1]
    geometry = {
        (session.n_bins, rf.frame.dtype)
        for _, session, rfs in fusable
        for rf in rfs
    }
    if len(geometry) != 1:
        return {}
    reference = first.detector
    if reference is None:
        return {}
    for _, session, _ in fusable[1:]:
        detector = session.detector
        if detector is None or detector.config != reference.config:
            return {}
    rows = np.stack([rf.frame for _, _, rfs in fusable for rf in rfs])
    denoised_all = reference.preprocessor.denoise_block(rows)
    out: dict[int, np.ndarray] = {}
    offset = 0
    for index, _, rfs in fusable:
        out[index] = denoised_all[offset : offset + len(rfs)]
        offset += len(rfs)
    return out


def shard_worker_main(conn: Connection, ring_name: str) -> None:
    """Entry point of one shard worker process."""
    import repro.shard._preload  # noqa: F401  (no-op under forkserver preload)

    ring = ShmRing.attach(ring_name)
    state = _WorkerState()
    stopping = False
    try:
        conn.send(ReadyMsg(pid=os.getpid()))
        last_beat = time.monotonic()
        while True:
            worked = _tick(ring, conn, state)
            while state.requests:
                msg = state.requests.popleft()
                if isinstance(msg, DetachMsg):
                    report = state.detach(msg.session_id, ring, conn)
                    conn.send(DetachAck(msg.session_id, report))
                else:
                    stopping = True
            now = time.monotonic()
            if worked or now - last_beat >= _HEARTBEAT_S:
                conn.send(state.report())
                last_beat = now
            if stopping and ring.size == 0:
                conn.send(StoppedMsg(state.report()))
                return
            if not worked and not stopping:
                conn.poll(_IDLE_POLL_S)
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        # Parent gone (or tearing down): nothing to report to, exit.
        pass
    finally:
        state.by_index.clear()
        state.by_id.clear()
        ring.close()
        conn.close()


class ShardWorker:
    """Parent-side handle for one shard: process + ring + control pipe.

    Release with :meth:`close` — it joins (or, past the grace window,
    kills) the process, closes the pipe, and closes **and unlinks** the
    shared-memory ring, so no segment outlives the fleet.
    """

    def __init__(
        self,
        shard_index: int,
        ring_slots: int,
        slot_bytes: int,
        ctx: Any | None = None,
    ) -> None:
        self.shard_index = shard_index
        self.ring = ShmRing.create(ring_slots, slot_bytes)
        context = ctx if ctx is not None else mp_context()
        self.conn, child_conn = context.Pipe()
        self._send_lock = threading.Lock()
        self.ready = False
        self.stop_requested = False
        self.stopped = False
        self.last_seen = time.monotonic()
        self.process = context.Process(
            target=shard_worker_main,
            args=(child_conn, self.ring.name),
            name=f"repro-shard-{shard_index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def alive(self) -> bool:
        """True while the worker process runs."""
        return self.process.is_alive()

    def send(self, msg: object) -> bool:
        """Send a control message; False when the worker is unreachable."""
        try:
            with self._send_lock:
                self.conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def close(self, grace_s: float = 2.0) -> None:
        """Release the process, pipe, and ring (idempotent, never raises)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace_s)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=grace_s)
        try:
            self.conn.close()
        except OSError:
            pass
        self.ring.close()
        self.ring.unlink()
